// Package mapreduce is a from-scratch MapReduce substrate behind DiaSpec's
// `grouped by … with map … reduce …` clause (paper §IV.2, Figure 8 line 4,
// Figure 10): a Map phase over individual sensor readings and a Reduce phase
// over per-group value lists. The runtime lowers every grouped interaction
// onto Incremental (incremental.go); Run is the parallel batch executor the
// scaling benches measure and the reference Incremental is tested against.
//
// The engine is deliberately deterministic: values presented to a reducer are
// ordered by the position of the input record that produced them, so a
// parallel run is observationally identical to the sequential baseline
// (property-tested). Two shuffle strategies are provided for the ablation
// bench: a single-point merge and a partitioned parallel shuffle.
package mapreduce

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
)

// Pair is a key/value record.
type Pair[K, V any] struct {
	Key   K
	Value V
}

// MapFunc transforms one input record into zero or more intermediate
// records via emit. It must be safe for concurrent invocation.
type MapFunc[K1, V1 any, K2 comparable, V2 any] func(key K1, value V1, emit func(K2, V2))

// ReduceFunc folds the values of one intermediate key into zero or more
// output records via emit. It must be safe for concurrent invocation on
// distinct keys.
type ReduceFunc[K2 comparable, V2, K3, V3 any] func(key K2, values []V2, emit func(K3, V3))

// Shuffle selects how intermediate records are regrouped between phases.
type Shuffle int

const (
	// ShufflePartitioned hashes keys into per-reducer partitions that are
	// merged and reduced concurrently.
	ShufflePartitioned Shuffle = iota + 1
	// ShuffleSingle merges all map outputs on one goroutine before the
	// parallel reduce. Kept as the ablation baseline.
	ShuffleSingle
)

// String implements fmt.Stringer.
func (s Shuffle) String() string {
	switch s {
	case ShufflePartitioned:
		return "partitioned"
	case ShuffleSingle:
		return "single"
	default:
		return fmt.Sprintf("Shuffle(%d)", int(s))
	}
}

// Config tunes an Engine run. The zero value selects sensible defaults.
type Config struct {
	// Workers bounds map- and reduce-phase parallelism. Default:
	// runtime.GOMAXPROCS(0).
	Workers int
	// ChunkSize is the number of input records per map task. Default 256.
	ChunkSize int
	// Shuffle selects the regrouping strategy. Default ShufflePartitioned.
	Shuffle Shuffle
	// KeyHash overrides the intermediate-key hash used for partitioning.
	// The default hashes fmt.Sprint(key) with FNV-1a; supply a cheaper
	// hash for hot paths.
	KeyHash func(any) uint64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = 256
	}
	if c.Shuffle == 0 {
		c.Shuffle = ShufflePartitioned
	}
	if c.KeyHash == nil {
		c.KeyHash = defaultKeyHash
	}
	return c
}

// defaultKeyHash hashes intermediate keys for partitioning. String and
// integer keys — the overwhelmingly common cases — are hashed directly with
// FNV-1a, allocation-free; other types fall back to hashing their fmt
// rendering (which allocates, but stays correct for any printable key).
func defaultKeyHash(k any) uint64 {
	switch v := k.(type) {
	case string:
		return fnvString(v)
	case int:
		return fnvUint64(uint64(v))
	case int64:
		return fnvUint64(uint64(v))
	case int32:
		return fnvUint64(uint64(v))
	case int16:
		return fnvUint64(uint64(v))
	case int8:
		return fnvUint64(uint64(v))
	case uint:
		return fnvUint64(uint64(v))
	case uint64:
		return fnvUint64(v)
	case uint32:
		return fnvUint64(uint64(v))
	case uint16:
		return fnvUint64(uint64(v))
	case uint8:
		return fnvUint64(uint64(v))
	case bool:
		if v {
			return fnvUint64(1)
		}
		return fnvUint64(0)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", k)
	return h.Sum64()
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func fnvUint64(x uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

// seqValue orders intermediate values by provenance so reducers observe a
// deterministic value order regardless of map-task scheduling.
type seqValue[V any] struct {
	seq uint64
	v   V
}

// Run executes the job in parallel per cfg and returns the output records.
// Output order is unspecified; see SortByKeyString for a deterministic view.
func Run[K1, V1 any, K2 comparable, V2 any, K3, V3 any](
	in []Pair[K1, V1],
	m MapFunc[K1, V1, K2, V2],
	r ReduceFunc[K2, V2, K3, V3],
	cfg Config,
) []Pair[K3, V3] {
	cfg = cfg.withDefaults()
	if len(in) == 0 {
		return nil
	}

	locals := runMapPhase(in, m, cfg)

	switch cfg.Shuffle {
	case ShuffleSingle:
		groups := mergeSingle(locals)
		return reduceGroups(groups, r, cfg)
	default:
		parts := mergePartitioned(locals, cfg)
		return reducePartitions(parts, r, cfg)
	}
}

// RunSequential executes the same job on the calling goroutine. It is the
// paper's "no exposed parallelism" baseline and the reference semantics for
// Run.
func RunSequential[K1, V1 any, K2 comparable, V2 any, K3, V3 any](
	in []Pair[K1, V1],
	m MapFunc[K1, V1, K2, V2],
	r ReduceFunc[K2, V2, K3, V3],
) []Pair[K3, V3] {
	if len(in) == 0 {
		return nil
	}
	groups := make(map[K2][]V2)
	var keyOrder []K2
	for _, rec := range in {
		m(rec.Key, rec.Value, func(k2 K2, v2 V2) {
			if _, ok := groups[k2]; !ok {
				keyOrder = append(keyOrder, k2)
			}
			groups[k2] = append(groups[k2], v2)
		})
	}
	var out []Pair[K3, V3]
	for _, k2 := range keyOrder {
		r(k2, groups[k2], func(k3 K3, v3 V3) {
			out = append(out, Pair[K3, V3]{Key: k3, Value: v3})
		})
	}
	return out
}

func runMapPhase[K1, V1 any, K2 comparable, V2 any](
	in []Pair[K1, V1],
	m MapFunc[K1, V1, K2, V2],
	cfg Config,
) []map[K2][]seqValue[V2] {
	type chunk struct {
		lo, hi int
	}
	chunks := make(chan chunk)
	locals := make([]map[K2][]seqValue[V2], cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		locals[w] = make(map[K2][]seqValue[V2])
		wg.Add(1)
		go func(local map[K2][]seqValue[V2]) {
			defer wg.Done()
			for c := range chunks {
				for i := c.lo; i < c.hi; i++ {
					rec := in[i]
					var nEmit uint64
					// seq = input position, refined by emit
					// order within one record; recordSeq
					// gives 2^16 emissions per record before
					// ties, far beyond practical fan-out.
					base := uint64(i) << 16
					m(rec.Key, rec.Value, func(k2 K2, v2 V2) {
						local[k2] = append(local[k2], seqValue[V2]{seq: base | (nEmit & 0xffff), v: v2})
						nEmit++
					})
				}
			}
		}(locals[w])
	}
	for lo := 0; lo < len(in); lo += cfg.ChunkSize {
		hi := lo + cfg.ChunkSize
		if hi > len(in) {
			hi = len(in)
		}
		chunks <- chunk{lo, hi}
	}
	close(chunks)
	wg.Wait()
	return locals
}

func mergeSingle[K2 comparable, V2 any](locals []map[K2][]seqValue[V2]) map[K2][]seqValue[V2] {
	merged := make(map[K2][]seqValue[V2])
	for _, local := range locals {
		for k, vs := range local {
			merged[k] = append(merged[k], vs...)
		}
	}
	return merged
}

func mergePartitioned[K2 comparable, V2 any](
	locals []map[K2][]seqValue[V2],
	cfg Config,
) []map[K2][]seqValue[V2] {
	parts := make([]map[K2][]seqValue[V2], cfg.Workers)
	var wg sync.WaitGroup
	for p := 0; p < cfg.Workers; p++ {
		parts[p] = make(map[K2][]seqValue[V2])
		wg.Add(1)
		go func(p int, part map[K2][]seqValue[V2]) {
			defer wg.Done()
			for _, local := range locals {
				for k, vs := range local {
					if int(cfg.KeyHash(k)%uint64(cfg.Workers)) == p {
						part[k] = append(part[k], vs...)
					}
				}
			}
		}(p, parts[p])
	}
	wg.Wait()
	return parts
}

func reduceGroups[K2 comparable, V2, K3, V3 any](
	groups map[K2][]seqValue[V2],
	r ReduceFunc[K2, V2, K3, V3],
	cfg Config,
) []Pair[K3, V3] {
	keys := make([]K2, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	outs := make([][]Pair[K3, V3], cfg.Workers)
	next := make(chan K2)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range next {
				outs[w] = append(outs[w], reduceOne(k, groups[k], r)...)
			}
		}(w)
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return flatten(outs)
}

func reducePartitions[K2 comparable, V2, K3, V3 any](
	parts []map[K2][]seqValue[V2],
	r ReduceFunc[K2, V2, K3, V3],
	cfg Config,
) []Pair[K3, V3] {
	outs := make([][]Pair[K3, V3], len(parts))
	var wg sync.WaitGroup
	for p := range parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k, vs := range parts[p] {
				outs[p] = append(outs[p], reduceOne(k, vs, r)...)
			}
		}(p)
	}
	wg.Wait()
	return flatten(outs)
}

func reduceOne[K2 comparable, V2, K3, V3 any](
	k K2,
	vs []seqValue[V2],
	r ReduceFunc[K2, V2, K3, V3],
) []Pair[K3, V3] {
	sort.Slice(vs, func(i, j int) bool { return vs[i].seq < vs[j].seq })
	values := make([]V2, len(vs))
	for i, sv := range vs {
		values[i] = sv.v
	}
	var out []Pair[K3, V3]
	r(k, values, func(k3 K3, v3 V3) {
		out = append(out, Pair[K3, V3]{Key: k3, Value: v3})
	})
	return out
}

func flatten[K3, V3 any](outs [][]Pair[K3, V3]) []Pair[K3, V3] {
	n := 0
	for _, o := range outs {
		n += len(o)
	}
	all := make([]Pair[K3, V3], 0, n)
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}

// SortByKeyString orders pairs by the fmt.Sprint rendering of their keys,
// then by value rendering. It gives tests and report harnesses a
// deterministic view of Run output.
func SortByKeyString[K, V any](pairs []Pair[K, V]) {
	sort.Slice(pairs, func(i, j int) bool {
		ki, kj := fmt.Sprint(pairs[i].Key), fmt.Sprint(pairs[j].Key)
		if ki != kj {
			return ki < kj
		}
		return fmt.Sprint(pairs[i].Value) < fmt.Sprint(pairs[j].Value)
	})
}

// Package mapreduce is a from-scratch MapReduce substrate behind DiaSpec's
// `grouped by … with map … reduce …` clause (paper §IV.2, Figure 8 line 4,
// Figure 10): a Map phase over individual sensor readings and a Reduce phase
// over per-group value lists. The runtime lowers every grouped interaction
// onto Incremental (incremental.go); RunSequential is the one-shot batch
// reference that Incremental and the runtime's grouped rounds are tested
// against.
//
// Both engines are deterministic: RunSequential presents a reducer its
// values in input-record order and Incremental's replay in input-id order,
// so the two agree over id-sorted input and non-commutative reducers are
// usable.
package mapreduce

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

// RunSequential executes the job on the calling goroutine and returns the
// output records, grouped in first-emission order of their intermediate
// keys. It is the reference semantics for Incremental.
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

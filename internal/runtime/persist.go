package runtime

import (
	"bytes"
	"fmt"
	"strconv"
)

// This file is the per-app half of durability (the host opens, recovers and
// seals the store, see Host.openPersistence): the incremental aggregation
// engines contribute checkpoint blobs to snapshots and restore them at
// wiring time — so a restarted node resumes with its per-group aggregates,
// not just its fleet and generations.

// aggKey is the stable snapshot key of one grouped interaction's engine.
func (pa *provAgg) aggKey() string {
	return pa.ctx.Name + "#" + strconv.Itoa(pa.idx)
}

// aggSnapKey namespaces an engine's snapshot key by tenant: deployed apps
// share one store, and two apps may declare identically named contexts.
// The NUL separator cannot collide with app IDs (Deploy rejects NUL) or
// with New's keys (appID "" leaves the key bare, so snapshots written by
// runtime.New before it was a one-app host restore without migration).
func (rt *Runtime) aggSnapKey(pa *provAgg) string {
	if rt.appID == "" {
		return pa.aggKey()
	}
	return rt.appID + "\x00" + pa.aggKey()
}

// captureAggCheckpoints contributes every provided-grouped engine's
// checkpoint to a snapshot. Each engine is captured under its own mutex;
// snapshots never hold the store mutex here, so the engines' normal lock
// order (pa.mu → registry shard → store.mu) cannot deadlock against it.
func (rt *Runtime) captureAggCheckpoints(add func(key string, blob []byte)) {
	rt.mu.Lock()
	pas := make([]*provAgg, 0, len(rt.aggByKey))
	for _, list := range rt.aggByKey {
		pas = append(pas, list...)
	}
	rt.mu.Unlock()
	var buf bytes.Buffer
	for _, pa := range pas {
		buf.Reset()
		pa.mu.Lock()
		err := pa.core.eng.Checkpoint(&buf)
		pa.mu.Unlock()
		if err != nil {
			rt.reportError(pa.ctx.Name, fmt.Errorf("aggregate checkpoint: %w", err))
			continue
		}
		add(rt.aggSnapKey(pa), append([]byte(nil), buf.Bytes()...))
	}
}

// restoreAggState loads one interaction's recovered checkpoint into its
// freshly built engine. Runs at wiring time, before the interaction's
// registry resync — so contributions of devices that did not survive
// recovery are retracted by the resync that follows.
func (rt *Runtime) restoreAggState(pa *provAgg) {
	rt.host.mu.Lock()
	blob := rt.host.aggRestore[rt.aggSnapKey(pa)]
	rt.host.mu.Unlock()
	if len(blob) == 0 {
		return
	}
	pa.mu.Lock()
	err := pa.core.restore(bytes.NewReader(blob))
	pa.mu.Unlock()
	if err != nil {
		rt.reportError(pa.ctx.Name, fmt.Errorf("aggregate restore: %w", err))
	}
}

package runtime

import (
	"sync"

	"repro/internal/device"
)

// deviceTable is the local-driver table of one Host: device ID → bound
// driver, shared by every attached app, so a device bound once is
// resolvable by all tenants (the "one fleet, N apps" model). The table
// carries its own mutex — never a Runtime's — because bindings outlive any
// one app.
type deviceTable struct {
	mu sync.Mutex
	m  map[string]device.Driver
}

func newDeviceTable() *deviceTable {
	return &deviceTable{m: make(map[string]device.Driver)}
}

// get resolves one driver.
func (t *deviceTable) get(id string) (device.Driver, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	drv, ok := t.m[id]
	return drv, ok
}

// install optimistically claims the slot before registration, returning what
// it displaced so a failed Register can roll back (see rollback).
func (t *deviceTable) install(drv device.Driver) (prev device.Driver, had bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev, had = t.m[drv.ID()]
	t.m[drv.ID()] = drv
	return prev, had
}

// rollback undoes an optimistic install after a failed registration.
func (t *deviceTable) rollback(id string, prev device.Driver, had bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if had {
		t.m[id] = prev
	} else {
		delete(t.m, id)
	}
}

// remove drops one binding.
func (t *deviceTable) remove(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.m, id)
}

// resolve fills out[i] with the driver bound for ids[i] (nil when unbound)
// under one lock acquisition — the poll-snapshot rebuild path.
func (t *deviceTable) resolve(ids []string, out []device.Driver) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, id := range ids {
		out[i] = t.m[id]
	}
}

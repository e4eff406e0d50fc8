package federation

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/transport"
)

// Bridges for the external test package (federation_test): the replay tests
// need one deterministic window, which the public surface does not offer.

// ForwardWindow exposes the forwarding window.
const ForwardWindow = forwardWindow

// ForwardBurst ships batch to the named peer as one burst of a fresh forward
// stream, on the calling goroutine: exactly what a stream's flusher does with
// one swapped-out buffer, minus the race between pushes and the flusher's
// swap that makes chunk boundaries unpredictable.
func (n *Node) ForwardBurst(peerName, kind, source string, batch []device.Reading) {
	n.mu.Lock()
	p := n.peers[peerName]
	n.mu.Unlock()
	if got := p.budget.AcquireUpTo(len(batch)); got != len(batch) {
		panic(fmt.Sprintf("ForwardBurst: budget admitted %d of %d", got, len(batch)))
	}
	b := &fwdBuffer{p: p, kind: kind, source: source, stream: newStreamID()}
	b.flush(batch)
}

// ExporterCatchUp exposes the bound on a registry sync's exporter wait.
const ExporterCatchUp = exporterCatchUp

// SetExporterLag makes this node's exporters wait d before they apply each
// batch of registry changes, until the returned function restores it.
func (n *Node) SetExporterLag(d time.Duration) (restore func()) {
	n.exporterLag.Store(int64(d))
	return func() { n.exporterLag.Store(0) }
}

// SyncKinds answers a registry sync as this node's transport server would.
func (n *Node) SyncKinds(kinds []string, gens []uint64) []transport.SyncDelta {
	return nodeHandler{n}.SyncKinds(kinds, gens)
}

// InterposeFederationHandler wraps the handler this node's transport server
// answers federation ops with; wrap receives the node's own handler.
func (n *Node) InterposeFederationHandler(wrap func(transport.FederationHandler) transport.FederationHandler) {
	n.srv.ServeFederation(wrap(nodeHandler{n}))
}

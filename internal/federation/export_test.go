package federation

import (
	"fmt"

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

// InterposeFederationHandler wraps the handler this node's transport server
// answers federation ops with; wrap receives the node's own handler.
func (n *Node) InterposeFederationHandler(wrap func(transport.FederationHandler) transport.FederationHandler) {
	n.srv.ServeFederation(wrap(nodeHandler{n}))
}

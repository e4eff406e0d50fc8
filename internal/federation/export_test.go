package federation

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/transport"
)

// Bridges for the external test package (federation_test): the replay and
// swap-buffer tests need one deterministic window and a look at buffer
// capacities, neither of which the public surface offers.

// ForwardWindow and SwapRetainWindows expose the forwarding constants.
const (
	ForwardWindow     = forwardWindow
	SwapRetainWindows = swapRetainWindows
)

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

// SwapCapacity reports the capacity of the swap slice currently taking
// pushes in the forward buffer toward peerName for (kind, source). The two
// swap slices alternate in that role, one flush each.
func (n *Node) SwapCapacity(peerName, kind, source string) int {
	n.mu.Lock()
	p := n.peers[peerName]
	n.mu.Unlock()
	b := p.bufferFor(kind, source)
	b.mu.Lock()
	defer b.mu.Unlock()
	return cap(b.buf)
}

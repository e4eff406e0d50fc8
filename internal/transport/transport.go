// Package transport provides the networking substrate: a gob-over-TCP RPC
// protocol that exposes device drivers remotely, the client-side proxies the
// generated frameworks hand to controllers (paper §V.B: "a set of proxies
// for invoking remote devices without the need for managing distributed
// systems details"), and a deterministic wide-area link simulator standing
// in for the paper's Sigfox/LoRa-class networks.
//
// One TCP connection multiplexes request/response calls (query, invoke) and
// server-push subscription streams (event-driven delivery). Values crossing
// the wire are gob-encoded; applications register their payload types with
// RegisterType.
package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/registry"
)

// RegisterType registers a concrete payload type with the wire codec. It is
// a thin wrapper over gob.Register so callers need not import encoding/gob.
func RegisterType(v any) { gob.Register(v) }

var registerBasics sync.Once

func ensureBasicTypes() {
	registerBasics.Do(func() {
		gob.Register(time.Time{})
		gob.Register([]any(nil))
		gob.Register(map[string]any(nil))
	})
}

// Wire messages. A single frame type flows in each direction.

type request struct {
	ID      uint64
	Op      string // "query", "query_batch", "invoke", "command_batch", "subscribe", "cancel", "registry_sync", "event_batch", "agg_sync", "host_deploy", "host_remove", "host_list", "host_stats", "fleet_stats", "drain", "set_budget", "ping"
	Device  string
	Devices []string // for "query_batch"/"command_batch": the devices to answer for
	Facet   string
	Args    []any
	SubID   uint64

	// Federation fields (gob omits them on the classic ops).
	Kind     string           // "event_batch"/"agg_sync": device kind
	Kinds    []string         // "registry_sync": kinds to sync
	Gens     []uint64         // "registry_sync": last generation seen per kind
	Readings []device.Reading // "event_batch": the forwarded readings
	Origin   string           // "agg_sync": name of the aggregating node
	Groups   []GroupPartial   // "agg_sync": the per-group partial aggregates
	Stream   uint64           // "event_batch": sender stream identity (0 = no replay protection)
	Seq      uint64           // "event_batch": per-stream sequence number
	Bin      []byte           // "event_batch"/"agg_sync": the colv1 frame, when the payload has a column form (then Readings/Groups stay empty)

	// Host-admin fields (gob omits them elsewhere).
	App      string // "host_deploy"/"host_remove"/"set_budget": target app ID
	Design   string // "host_deploy": the .diaspec design source
	Capacity int    // "set_budget": new in-flight budget capacity (<= 0 = unbounded)
}

type response struct {
	ID      uint64 // matches request.ID for call replies; 0 for pushes
	SubID   uint64
	Value   any
	Values  []any    // per-device answers of a "query_batch"
	Errs    []string // per-device errors of a "query_batch"/"command_batch" ("" = ok)
	Err     string
	Push    bool
	Reading device.Reading
	Closed  bool // subscription ended

	Deltas   []SyncDelta // "registry_sync" answer
	Accepted int         // "event_batch": readings admitted by the receiver
	Boot     uint64      // "registry_sync": the answering server's boot epoch

	Apps     []HostAppInfo    // "host_list" answer
	AppStats []AppStatsRecord // "host_stats" answer
	Fleet    *FleetStats      // "fleet_stats" answer
	Drained  *DrainReport     // "drain" answer
}

// HostAppInfo describes one deployed app in a "host_list" answer.
type HostAppInfo struct {
	ID          string
	Contexts    []string
	Controllers []string
}

// AppStatsRecord carries one scope's counters in a "host_stats" answer.
// Scopes are the deployed app IDs plus pseudo-scopes the handler chooses to
// expose (e.g. "host" for substrate-level gauges).
type AppStatsRecord struct {
	App      string
	Counters map[string]uint64
}

// FleetStats is the one-snapshot answer of the "fleet_stats" admin op: the
// whole operations surface of a host — substrate gauges, every tenant's
// counters, registered gauge sources (the federation tier), per-peer link
// health, per-kind registry population, per-app ingestion budgets, and the
// drain state — in a single wire round trip, so `diaspecc top` and the
// Prometheus exporter read one consistent-enough snapshot instead of
// stitching N racing calls.
type FleetStats struct {
	// Host carries the substrate-level counters under scope "host".
	Host AppStatsRecord
	// Apps carries one record per deployed app, sorted by app ID.
	Apps []AppStatsRecord
	// Gauges carries one record per registered gauge source (e.g. scope
	// "federation" for a federation node's sync counters), sorted by name.
	Gauges []AppStatsRecord
	// Peers carries the federation peer-link health ladder, when a peer
	// source is registered on the host; empty otherwise.
	Peers []PeerStatusRecord
	// Registry summarizes the live entity population per device kind.
	Registry []KindCount
	// Budgets reports every app's ingestion admission budget occupancy.
	Budgets []BudgetRecord
	// Draining reports whether a drain has been requested on the host.
	Draining bool
}

// PeerStatusRecord is one federation peer link's status in a FleetStats
// snapshot.
type PeerStatusRecord struct {
	// Name is the peer's federation node name.
	Name string
	// Health is the link's health-ladder state: "up", "degraded", or
	// "partitioned".
	Health string
	// BytesSent and BytesRecv are the cumulative wire bytes exchanged with
	// the peer.
	BytesSent uint64
	BytesRecv uint64
}

// KindCount summarizes one device kind's registry population in a
// FleetStats snapshot.
type KindCount struct {
	// Kind is the device kind name.
	Kind string
	// Count is the number of live registry entities of the kind, mirrors
	// included.
	Count int
	// Mirrors is how many of Count are federation mirrors owned by peers.
	Mirrors int
}

// BudgetRecord reports one app's ingestion admission budget in a FleetStats
// snapshot. With more than one ingestion pipeline per app, Capacity and
// InFlight sum over the pipelines.
type BudgetRecord struct {
	// App is the owning app ID.
	App string
	// Capacity is the configured in-flight bound (<= 0 = unbounded).
	Capacity int
	// InFlight is the number of units currently admitted and not yet
	// released.
	InFlight int
	// Admitted and Rejected are the cumulative admission totals.
	Admitted uint64
	Rejected uint64
}

// DrainReport is the "drain" admin op's answer: what the drain flushed and
// whether the process is now safe to kill.
type DrainReport struct {
	// Apps is the number of deployed apps drained.
	Apps int
	// InFlightAtStart is the number of readings buffered in ingestion
	// shards when the drain began — the work the drain had to flush.
	InFlightAtStart int
	// RefusedDuringDrain counts readings that arrived after admission
	// closed and were refused (accounted as ingest_drain_drops per app).
	RefusedDuringDrain uint64
	// Snapshotted reports whether a final durability snapshot was written
	// (always false for a host without persistence).
	Snapshotted bool
	// Clean reports whether every ingestion pipeline quiesced before the
	// drain deadline; false means the report was returned on timeout with
	// readings possibly still in flight.
	Clean bool
	// DurationMillis is the wall-clock drain time in milliseconds.
	DurationMillis int64
}

// GroupPartial is one group's node-local partial aggregate in an
// "agg_sync" request: the sending node's combine-fold over its own fleet's
// readings for that group. Removed retracts a group the sender no longer
// aggregates (its last local contributor left). Each sync replaces the
// sender's previous partials group by group, so the op is idempotent and a
// lost sync is repaired by the next one.
type GroupPartial struct {
	Group   string
	Value   any
	Removed bool
}

// SyncDelta is one kind's answer to a "registry_sync" request. When the
// requesting peer's generation still matches, Changed is false and Entities
// is empty — the whole kind costs a few bytes on the wire. Otherwise
// Entities carries the owner's full exported population of the kind and the
// mirror side diffs it locally.
type SyncDelta struct {
	Kind     string
	Gen      uint64
	Changed  bool
	Entities []registry.Entity
}

// FederationHandler answers the federation wire ops on behalf of a node:
// registry delta sync and cross-node event ingestion. Implementations must
// be safe for concurrent use (each server connection dispatches
// independently). The readings and groups slices are only valid for the
// duration of the call — the serve loop recycles their backing arrays for
// the connection's next batch — so an implementation that retains them must
// copy the elements out (retaining individual elements is fine; they are
// plain values).
type FederationHandler interface {
	// SyncKinds answers one registry_sync request: one SyncDelta per
	// requested kind, given the generation the peer last observed.
	SyncKinds(kinds []string, gens []uint64) []SyncDelta
	// IngestEventBatch lands one forwarded event batch and reports how
	// many readings were admitted (the rest were dropped by the
	// receiver's admission budget and are accounted there). stream/seq
	// identify the batch for replay protection: a sender keeps several
	// batches of one stream in flight, in sequence order, and when the
	// connection dies mid-RPC replays every batch it has no answer for
	// under the same (stream, seq), oldest first — including those the
	// receiver already ingested. The implementation must answer each of
	// them its original admission count without ingesting twice —
	// exactly-once delivery is what keeps the federation's
	// delivered+dropped accounting exact across partitions.
	// stream 0 disables replay protection.
	IngestEventBatch(stream, seq uint64, kind, source string, readings []device.Reading) int
	// IngestAggSync merges one peer's node-local per-group partial
	// aggregates for (kind, source) and reports how many consuming
	// interactions merged them (0 = unrouted).
	IngestAggSync(kind, source, origin string, groups []GroupPartial) int
}

// AdminHandler answers the host-administration wire ops — the remote
// surface behind `diaspecc host deploy/list/stats/remove`. Implementations
// must be safe for concurrent use.
type AdminHandler interface {
	// DeployApp hot-deploys a .diaspec design source under appID.
	DeployApp(appID, design string) error
	// RemoveApp undeploys one app.
	RemoveApp(appID string) error
	// ListApps enumerates the deployed apps.
	ListApps() []HostAppInfo
	// AppStats snapshots per-scope counters.
	AppStats() []AppStatsRecord
	// FleetStats snapshots the whole operations surface in one call — the
	// op behind `diaspecc top` and the Prometheus exporter.
	FleetStats() FleetStats
	// Drain stops admitting new readings, flushes the ingestion pipelines,
	// writes a final durability snapshot when persistence is attached, and
	// reports when the process is safe to kill.
	Drain() (DrainReport, error)
	// SetBudget retunes one app's live ingestion admission budget
	// (capacity <= 0 = unbounded).
	SetBudget(appID string, capacity int) error
}

// Errors returned by transport operations. ErrTimeout, ErrConnLost, and
// ErrClosed are the three ways a call can die without a server verdict;
// reconnect logic (ManagedClient) treats all three as connection failures,
// while server-reported errors pass through verbatim and never trigger a
// reconnect.
var (
	ErrClosed   = errors.New("transport: closed")
	ErrTimeout  = errors.New("transport: call timeout")
	ErrConnLost = errors.New("transport: connection lost")
	ErrDial     = errors.New("transport: dial failed")
	ErrPeerDown = errors.New("transport: peer down")
)

// Dialer opens the raw connection underneath a Client. The default is plain
// net.Dial over TCP; chaos harnesses substitute a fault-injecting dialer.
type Dialer func(addr string) (net.Conn, error)

func tcpDialer(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// bootSeq disambiguates servers started within the same nanosecond so a
// boot epoch is unique per Server instance within a process too.
var bootSeq atomic.Uint64

// Server exposes a set of local drivers over TCP.
type Server struct {
	ln net.Listener

	// boot identifies this Server instance. It rides every registry_sync
	// response so a peer that cached generations against a previous
	// incarnation (the node was killed and restarted, resetting generation
	// counters) can detect the restart and rebuild its mirror from scratch
	// instead of trusting a coincidentally-matching generation.
	boot uint64

	mu      sync.Mutex
	drivers map[string]device.Driver
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup

	fed   atomic.Pointer[fedBox]
	admin atomic.Pointer[adminBox]
}

// fedBox wraps the handler so the atomic pointer has a concrete type.
type fedBox struct{ h FederationHandler }

// adminBox is fedBox's twin for the host-admin handler.
type adminBox struct{ h AdminHandler }

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithBoot overrides the server's boot epoch. A node restarting with durably
// recovered state reuses its previous incarnation's epoch so peers treat it
// as the same incarnation: cached generations stay valid and catch-up is a
// delta sync instead of a full mirror rebuild.
func WithBoot(epoch uint64) ServerOption {
	return func(s *Server) {
		if epoch != 0 {
			s.boot = epoch
		}
	}
}

// NewServer starts a server listening on addr ("127.0.0.1:0" for an
// ephemeral port).
func NewServer(addr string, opts ...ServerOption) (*Server, error) {
	ensureBasicTypes()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	s := &Server{
		ln:      ln,
		boot:    uint64(time.Now().UnixNano()) + bootSeq.Add(1),
		drivers: make(map[string]device.Driver),
		conns:   make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address, suitable for registry Endpoint
// fields.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Boot returns the server's boot epoch (constant after NewServer). A
// durable node persists it so its next incarnation can reuse it.
func (s *Server) Boot() uint64 { return s.boot }

// Host makes drv callable by remote clients.
func (s *Server) Host(drv device.Driver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drivers[drv.ID()] = drv
}

// Unhost removes a driver.
func (s *Server) Unhost(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.drivers, id)
}

// ServeFederation installs the handler answering registry_sync and
// event_batch requests on this server. Passing nil uninstalls it; without a
// handler those ops fail with an error response.
func (s *Server) ServeFederation(h FederationHandler) {
	if h == nil {
		s.fed.Store(nil)
		return
	}
	s.fed.Store(&fedBox{h: h})
}

func (s *Server) federation() FederationHandler {
	if box := s.fed.Load(); box != nil {
		return box.h
	}
	return nil
}

// ServeAdmin installs the handler answering host-administration requests
// (host_deploy, host_remove, host_list, host_stats) on this server. Passing
// nil uninstalls it; without a handler those ops fail with an error
// response.
func (s *Server) ServeAdmin(h AdminHandler) {
	if h == nil {
		s.admin.Store(nil)
		return
	}
	s.admin.Store(&adminBox{h: h})
}

func (s *Server) adminHandler() AdminHandler {
	if box := s.admin.Load(); box != nil {
		return box.h
	}
	return nil
}

// Close stops the listener and all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.register(conn) {
			_ = conn.Close()
			return
		}
		go s.serveConn(conn)
	}
}

// register adds conn to the live set unless the server is already closing.
// The closed-flag check, the map insert, and the wg.Add happen under one
// lock hold: Close either sees the conn in its snapshot or register refuses
// it — a conn accepted mid-shutdown can never slip past Close's snapshot
// and outlive the server.
func (s *Server) register(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()

	dec := newFrameDecoder(conn)
	out := make(chan response, 64)
	done := make(chan struct{})

	// The writer flushes only when its queue is empty, so answers queued
	// behind one another (a forwarder's window of Accepted counts) share
	// one write; an answer never waits on anything but the answers ahead
	// of it.
	var writeWG sync.WaitGroup
	writeWG.Add(1)
	go func() {
		defer writeWG.Done()
		fw := newFrameWriter(conn)
		for {
			select {
			case resp := <-out:
				if fw.write(&resp) != nil {
					return
				}
				if len(out) == 0 && fw.w.Flush() != nil {
					return
				}
			case <-done:
				// Drain anything already queued, then stop.
				for {
					select {
					case resp := <-out:
						if fw.write(&resp) != nil {
							return
						}
					default:
						// The connection closes next, so a failed flush
						// has no one left to fail.
						_ = fw.w.Flush()
						return
					}
				}
			}
		}
	}()

	type liveSub struct {
		sub  device.Subscription
		stop chan struct{}
	}
	subs := make(map[uint64]*liveSub)
	var subsMu sync.Mutex
	var subWG sync.WaitGroup

	defer func() {
		close(done)
		subsMu.Lock()
		for _, ls := range subs {
			ls.sub.Cancel()
			close(ls.stop)
		}
		subs = nil
		subsMu.Unlock()
		subWG.Wait()
		writeWG.Wait()
	}()

	send := func(resp response) bool {
		select {
		case out <- resp:
			return true
		case <-done:
			return false
		}
	}

	var scratch fedScratch
	var req request // one heap value for the connection, zeroed per request

	for {
		req = request{}
		if err := dec.decode(&req); err != nil {
			// EOF, broken conn, or a malformed/oversized/truncated frame:
			// all of them poison the stream, so the connection ends here.
			// The deferred cleanup cancels live subscriptions and closes
			// the conn; the serve loop itself never panics or hangs on
			// hostile bytes.
			return
		}
		switch req.Op {
		case "ping":
			// Heartbeat: proves the full request/response path (socket,
			// framing, both codec directions) is alive.
			send(response{ID: req.ID})
		case "query":
			drv := s.lookup(req.Device)
			if drv == nil {
				send(response{ID: req.ID, Err: "unknown device " + req.Device})
				continue
			}
			v, err := drv.Query(req.Facet)
			send(response{ID: req.ID, Value: v, Err: errString(err)})
		case "query_batch":
			// One round trip answers every listed device: the batched form
			// of periodic gathering, turning N polls of one endpoint into a
			// single request. Drivers are resolved under one lock
			// acquisition; queries run outside it.
			drvs := s.lookupMany(req.Devices)
			vals := make([]any, len(req.Devices))
			errs := make([]string, len(req.Devices))
			for i, drv := range drvs {
				if drv == nil {
					errs[i] = "unknown device " + req.Devices[i]
					continue
				}
				v, err := drv.Query(req.Facet)
				vals[i] = v
				errs[i] = errString(err)
			}
			send(response{ID: req.ID, Values: vals, Errs: errs})
		case "invoke":
			drv := s.lookup(req.Device)
			if drv == nil {
				send(response{ID: req.ID, Err: "unknown device " + req.Device})
				continue
			}
			err := drv.Invoke(req.Facet, req.Args...)
			send(response{ID: req.ID, Err: errString(err)})
		case "command_batch":
			// The actuation twin of query_batch: one round trip performs
			// the same action (with shared arguments) on every listed
			// device hosted here, with per-device error isolation.
			drvs := s.lookupMany(req.Devices)
			errs := make([]string, len(req.Devices))
			for i, drv := range drvs {
				if drv == nil {
					errs[i] = "unknown device " + req.Devices[i]
					continue
				}
				errs[i] = errString(drv.Invoke(req.Facet, req.Args...))
			}
			send(response{ID: req.ID, Errs: errs})
		case "registry_sync", "event_batch", "agg_sync":
			resp, err := s.serveFederation(s.federation(), &req, &scratch)
			if err != nil {
				// A hostile payload is as poisonous as a malformed frame:
				// only this connection dies, never the server, and nothing
				// partially decoded reaches the handler.
				return
			}
			send(resp)
		case "host_deploy", "host_remove", "host_list", "host_stats", "fleet_stats", "drain", "set_budget":
			adm := s.adminHandler()
			if adm == nil {
				send(response{ID: req.ID, Err: "host admin not served here"})
				continue
			}
			send(serveAdmin(adm, &req))
		case "subscribe":
			drv := s.lookup(req.Device)
			if drv == nil {
				send(response{ID: req.ID, Err: "unknown device " + req.Device})
				continue
			}
			sub, err := drv.Subscribe(req.Facet)
			if err != nil {
				send(response{ID: req.ID, Err: errString(err)})
				continue
			}
			ls := &liveSub{sub: sub, stop: make(chan struct{})}
			subsMu.Lock()
			subs[req.SubID] = ls
			subsMu.Unlock()
			send(response{ID: req.ID})
			subWG.Add(1)
			go func(subID uint64, ls *liveSub) {
				defer subWG.Done()
				for {
					select {
					case r, ok := <-ls.sub.C():
						if !ok {
							send(response{SubID: subID, Push: true, Closed: true})
							return
						}
						if !send(response{SubID: subID, Push: true, Reading: r}) {
							return
						}
					case <-ls.stop:
						return
					}
				}
			}(req.SubID, ls)
		case "cancel":
			subsMu.Lock()
			if ls, ok := subs[req.SubID]; ok {
				delete(subs, req.SubID)
				ls.sub.Cancel()
				close(ls.stop)
			}
			subsMu.Unlock()
			send(response{ID: req.ID})
		default:
			send(response{ID: req.ID, Err: "unknown op " + req.Op})
		}
	}
}

// fedScratch is one connection's decode state for the federation ops: the
// serve loop is one goroutine and handlers never retain the slices, so each
// decoded batch reuses the previous one's backing array, and col holds the
// connection's string dictionary, so a steady stream of event batches over
// known devices decodes without allocating. The slices carry only the
// connection's last batch until overwritten, bounding what they pin. A
// reconnect is a new connection: a fresh fedScratch, an empty dictionary.
type fedScratch struct {
	readings []device.Reading
	groups   []GroupPartial
	col      colDec
}

// serveFederation answers one federation op. The payload picks its own
// decoding: a request with Bin carries a colv1 frame, one without carries
// the gob Readings/Groups slice. A colv1 frame is decoded even where no
// handler is installed: it advances the connection's string dictionary. An
// error means the payload is hostile — a frame the decoder rejects, or a
// request carrying both encodings — and the caller must end the connection
// before anything is ingested.
func (s *Server) serveFederation(fed FederationHandler, req *request, sc *fedScratch) (response, error) {
	var err error
	switch {
	case len(req.Bin) == 0:
	case len(req.Readings) > 0 || len(req.Groups) > 0:
		return response{}, errBad("%s carries both Bin and a gob slice", req.Op)
	case req.Op == "event_batch":
		sc.readings, err = sc.col.decodeReadings(req.Bin, sc.readings)
		req.Readings = sc.readings
	case req.Op == "agg_sync":
		sc.groups, err = sc.col.decodeAggSync(req.Bin, sc.groups)
		req.Groups = sc.groups
	}
	if err != nil {
		return response{}, err
	}
	if fed == nil {
		return response{ID: req.ID, Err: "federation not served here"}, nil
	}
	switch req.Op {
	case "registry_sync":
		return response{ID: req.ID, Deltas: fed.SyncKinds(req.Kinds, req.Gens), Boot: s.boot}, nil
	case "event_batch":
		return response{ID: req.ID, Accepted: fed.IngestEventBatch(req.Stream, req.Seq, req.Kind, req.Facet, req.Readings)}, nil
	default: // "agg_sync"
		return response{ID: req.ID, Accepted: fed.IngestAggSync(req.Kind, req.Facet, req.Origin, req.Groups)}, nil
	}
}

// serveAdmin answers one host-administration op.
func serveAdmin(adm AdminHandler, req *request) response {
	switch req.Op {
	case "host_deploy":
		return response{ID: req.ID, Err: errString(adm.DeployApp(req.App, req.Design))}
	case "host_remove":
		return response{ID: req.ID, Err: errString(adm.RemoveApp(req.App))}
	case "host_list":
		return response{ID: req.ID, Apps: adm.ListApps()}
	case "host_stats":
		return response{ID: req.ID, AppStats: adm.AppStats()}
	case "fleet_stats":
		fs := adm.FleetStats()
		return response{ID: req.ID, Fleet: &fs}
	case "drain":
		rep, err := adm.Drain()
		return response{ID: req.ID, Drained: &rep, Err: errString(err)}
	default: // "set_budget"
		return response{ID: req.ID, Err: errString(adm.SetBudget(req.App, req.Capacity))}
	}
}

func (s *Server) lookup(id string) device.Driver {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drivers[id]
}

func (s *Server) lookupMany(ids []string) []device.Driver {
	out := make([]device.Driver, len(ids))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		out[i] = s.drivers[id]
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// callResult is one call's outcome as delivered to its waiter: either a
// server response or a connection-level error (typed, so callers can
// distinguish "the peer said no" from "the wire died").
type callResult struct {
	resp response
	err  error
}

// Client is a connection to one Server, multiplexing calls and subscription
// streams.
type Client struct {
	conn net.Conn
	fw   *frameWriter

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan callResult
	subs    map[uint64]*clientSub
	closed  bool
	enc     colEnc // the connection's colv1 dictionary; send uses it under mu

	timeout time.Duration
	dialer  Dialer
	wg      sync.WaitGroup

	bytesSent atomic.Uint64
	bytesRecv atomic.Uint64

	// codecFallbacks counts event batches and agg syncs shipped as gob
	// slices because the payload has no column form. ManagedClient shares
	// one counter across reconnects (see withFallbackCounter).
	codecFallbacks *atomic.Uint64
}

// BytesSent reports the total bytes this client has written to the wire —
// the sync-payload gauge federation benchmarks use to show agg_sync stays
// O(groups) while event forwarding grows O(devices).
func (c *Client) BytesSent() uint64 { return c.bytesSent.Load() }

// BytesReceived reports the total bytes read from the wire.
func (c *Client) BytesReceived() uint64 { return c.bytesRecv.Load() }

// countingConn counts bytes through a client connection.
type countingConn struct {
	net.Conn
	sent, recv *atomic.Uint64
}

// Read counts received bytes through to the wrapped connection.
func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(uint64(n))
	return n, err
}

// Write counts sent bytes through to the wrapped connection.
func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(uint64(n))
	return n, err
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithCallTimeout bounds each call round trip. Default 5s. The timeout also
// caps how long a single frame write may stall (via the connection's write
// deadline), so a peer that stops draining its socket cannot wedge callers.
func WithCallTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithDialer substitutes the function that opens the underlying connection.
// Chaos harnesses use it to interpose fault-injecting links on the dial
// path; the default is plain TCP.
func WithDialer(d Dialer) ClientOption {
	return func(c *Client) { c.dialer = d }
}

// withFallbackCounter shares a cumulative gob-fallback counter into the
// client. ManagedClient threads one counter through every connection it
// dials so the codec_fallbacks total survives reconnects.
func withFallbackCounter(ctr *atomic.Uint64) ClientOption {
	return func(c *Client) { c.codecFallbacks = ctr }
}

// Dial connects to a server address. Failures wrap ErrDial.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	ensureBasicTypes()
	c := &Client{
		pending:        make(map[uint64]chan callResult),
		subs:           make(map[uint64]*clientSub),
		timeout:        5 * time.Second,
		dialer:         tcpDialer,
		codecFallbacks: new(atomic.Uint64),
	}
	for _, o := range opts {
		o(c)
	}
	conn, err := c.dialer(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrDial, addr, err)
	}
	c.conn = countingConn{Conn: conn, sent: &c.bytesSent, recv: &c.bytesRecv}
	c.fw = newFrameWriter(c.conn)
	c.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// Close tears down the connection; outstanding calls fail and subscription
// channels close.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	c.mu.Unlock()
	_ = c.conn.Close()
	c.wg.Wait()
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	dec := newFrameDecoder(c.conn)
	for {
		var resp response
		if err := dec.decode(&resp); err != nil {
			c.failAll(err)
			return
		}
		if resp.Push {
			c.mu.Lock()
			sub := c.subs[resp.SubID]
			if resp.Closed {
				delete(c.subs, resp.SubID)
			}
			c.mu.Unlock()
			if sub == nil {
				continue
			}
			if resp.Closed {
				sub.closeOnce()
				continue
			}
			// Drop-oldest on a slow consumer, matching device.Base.
			for {
				select {
				case sub.ch <- resp.Reading:
				default:
					select {
					case <-sub.ch:
					default:
					}
					continue
				}
				break
			}
			continue
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- callResult{resp: resp}
		}
	}
}

// failAll ends every outstanding call and subscription with a typed
// connection-loss error. It runs once, when the read loop dies.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- callResult{err: fmt.Errorf("%w: %v", ErrConnLost, err)}
	}
	for id, sub := range c.subs {
		delete(c.subs, id)
		sub.closeOnce()
	}
}

// waiter is the receiving half of one call: the channel its answer arrives
// on and the timer that bounds the wait. Both are recycled through
// waiterPool. It replaces a per-call channel plus time.After: under the
// pre-Go-1.23 timer semantics go.mod selects, an abandoned time.After timer
// stays in the runtime's heap until it fires, so every RPC used to leave one
// call-timeout's worth of timer behind (tens of thousands live at forwarding
// rates).
type waiter struct {
	ch    chan callResult
	timer *time.Timer
}

var waiterPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ch: make(chan callResult, 1), timer: t}
}}

// sentCall is a request that is on the wire and whose answer has not been
// collected yet: what send returns and wait consumes, exactly once.
type sentCall struct {
	id                uint64
	w                 *waiter
	op, device, facet string // for the timeout message
}

// send writes one request frame and registers its waiter. Requests leave in
// the order send is called, and the server answers a connection's requests
// in arrival order, so several sent calls may be outstanding at once. An
// event batch or agg sync is given its column form here (see colForm).
func (c *Client) send(req request) (sentCall, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return sentCall{}, ErrClosed
	}
	c.nextID++
	req.ID = c.nextID
	w := waiterPool.Get().(*waiter)
	c.pending[req.ID] = w.ch
	// The write deadline bounds how long one frame may take to drain into
	// the socket: a peer that accepted the connection but stopped reading
	// (or a chaos link that blackholes bytes) fails the write instead of
	// blocking every caller behind c.mu forever.
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	c.colForm(&req)
	err := c.fw.send(&req)
	c.mu.Unlock()
	if err != nil {
		// A partially-written frame poisons the stream for the peer, a
		// failed gob encode poisons the local encoder state, and a frame
		// that missed the wire after colForm advanced the dictionary leaves
		// the peer's behind: every error here must end this connection.
		// Closing it wakes the read loop, which fails the remaining pending
		// calls with ErrConnLost. The waiter is not pooled again: failAll
		// may already have answered into it.
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		_ = c.conn.Close()
		return sentCall{}, fmt.Errorf("%w: send %s: %v", ErrConnLost, req.Op, err)
	}
	return sentCall{id: req.ID, w: w, op: req.Op, device: req.Device, facet: req.Facet}, nil
}

// colForm moves an event batch's readings or an agg sync's groups into a
// colv1 payload coded against the connection's string dictionary, or leaves
// them as the gob slice, counted by CodecFallbacks, when they have no
// column form. It runs under c.mu right before the frame is written, so the
// dictionary advances in the order payloads reach the wire.
func (c *Client) colForm(req *request) {
	var ok bool
	switch {
	case len(req.Readings) > 0:
		if req.Bin, ok = c.enc.encodeReadings(req.Readings); ok {
			req.Readings = nil
		}
	case len(req.Groups) > 0:
		if req.Bin, ok = c.enc.encodeAggSync(req.Groups); ok {
			req.Groups = nil
		}
	default:
		return
	}
	if !ok {
		c.codecFallbacks.Add(1)
	}
}

// wait collects the answer to one sent call, bounded by the call timeout
// counted from now.
func (c *Client) wait(sc sentCall) (response, error) {
	w := sc.w
	w.timer.Reset(c.timeout)
	select {
	case res := <-w.ch:
		if !w.timer.Stop() {
			// The timer fired while the answer was being taken; empty its
			// channel so the next Reset starts clean.
			select {
			case <-w.timer.C:
			default:
			}
		}
		waiterPool.Put(w)
		if res.err != nil {
			return response{}, res.err
		}
		if res.resp.Err != "" {
			return res.resp, errors.New(res.resp.Err)
		}
		return res.resp, nil
	case <-w.timer.C:
		c.mu.Lock()
		delete(c.pending, sc.id)
		c.mu.Unlock()
		// The waiter is dropped, not pooled: the read loop may have looked
		// its channel up already and deliver the late answer into it.
		return response{}, fmt.Errorf("%w after %v (%s %s.%s)", ErrTimeout, c.timeout, sc.op, sc.device, sc.facet)
	}
}

// call is one request/response round trip: send, then wait.
func (c *Client) call(req request) (response, error) {
	sc, err := c.send(req)
	if err != nil {
		return response{}, err
	}
	return c.wait(sc)
}

// Ping performs one empty round trip — the heartbeat probe ManagedClient
// uses to detect a dead peer between real calls.
func (c *Client) Ping() error {
	_, err := c.call(request{Op: "ping"})
	return err
}

// HostDeploy hot-deploys a .diaspec design source under appID on the
// remote host (the `diaspecc host deploy` wire op).
func (c *Client) HostDeploy(appID, design string) error {
	_, err := c.call(request{Op: "host_deploy", App: appID, Design: design})
	return err
}

// HostRemove undeploys one app on the remote host.
func (c *Client) HostRemove(appID string) error {
	_, err := c.call(request{Op: "host_remove", App: appID})
	return err
}

// HostList enumerates the apps deployed on the remote host.
func (c *Client) HostList() ([]HostAppInfo, error) {
	resp, err := c.call(request{Op: "host_list"})
	if err != nil {
		return nil, err
	}
	return resp.Apps, nil
}

// HostStats snapshots the remote host's per-scope counters.
func (c *Client) HostStats() ([]AppStatsRecord, error) {
	resp, err := c.call(request{Op: "host_stats"})
	if err != nil {
		return nil, err
	}
	return resp.AppStats, nil
}

// FleetStats fetches the remote host's whole operations snapshot in one
// round trip — the call behind each `diaspecc top` refresh and Prometheus
// scrape.
func (c *Client) FleetStats() (FleetStats, error) {
	resp, err := c.call(request{Op: "fleet_stats"})
	if err != nil {
		return FleetStats{}, err
	}
	if resp.Fleet == nil {
		return FleetStats{}, fmt.Errorf("transport: fleet_stats answer carried no snapshot")
	}
	return *resp.Fleet, nil
}

// Drain asks the remote host to stop admitting readings, flush its
// ingestion pipelines, and write a final durability snapshot; the report
// says when the process is safe to kill. The drain runs synchronously
// within this call, so pair it with a WithCallTimeout generous enough for
// the flush (the host bounds its own quiesce wait).
func (c *Client) Drain() (DrainReport, error) {
	resp, err := c.call(request{Op: "drain"})
	if resp.Drained != nil {
		return *resp.Drained, err
	}
	if err == nil {
		err = fmt.Errorf("transport: drain answer carried no report")
	}
	return DrainReport{}, err
}

// SetBudget retunes one app's live ingestion admission budget on the remote
// host (capacity <= 0 = unbounded).
func (c *Client) SetBudget(appID string, capacity int) error {
	_, err := c.call(request{Op: "set_budget", App: appID, Capacity: capacity})
	return err
}

// Query performs a remote query-driven read.
func (c *Client) Query(deviceID, source string) (any, error) {
	resp, err := c.call(request{Op: "query", Device: deviceID, Facet: source})
	if err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// QueryBatch reads the same source from many devices hosted on this
// endpoint in a single request/response round trip. It returns one value
// and one error string per device, positionally matching deviceIDs (an
// empty string means the query succeeded). The returned error covers
// transport-level failures only.
func (c *Client) QueryBatch(deviceIDs []string, source string) ([]any, []string, error) {
	if len(deviceIDs) == 0 {
		return nil, nil, nil
	}
	resp, err := c.call(request{Op: "query_batch", Devices: deviceIDs, Facet: source})
	if err != nil {
		return nil, nil, err
	}
	return resp.Values, resp.Errs, nil
}

// Invoke performs a remote actuation.
func (c *Client) Invoke(deviceID, action string, args ...any) error {
	_, err := c.call(request{Op: "invoke", Device: deviceID, Facet: action, Args: args})
	return err
}

// CommandBatch performs the same action (with shared arguments) on many
// devices hosted on this endpoint in a single round trip — the actuation
// twin of QueryBatch. It returns one error string per device, positionally
// matching deviceIDs ("" = success). The returned error covers
// transport-level failures only.
func (c *Client) CommandBatch(deviceIDs []string, action string, args ...any) ([]string, error) {
	if len(deviceIDs) == 0 {
		return nil, nil
	}
	resp, err := c.call(request{Op: "command_batch", Devices: deviceIDs, Facet: action, Args: args})
	if err != nil {
		return nil, err
	}
	return resp.Errs, nil
}

// SyncRegistry performs one registry delta-sync round trip against the
// server's federation handler: for each kind, gens carries the generation
// observed by the previous sync (0 for the first). Unchanged kinds come
// back with Changed=false and no entities. The returned boot value is the
// answering server's boot epoch: a peer that compares it against the epoch
// of its previous sync can tell a reconnect to the same incarnation (cached
// generations stay valid — delta catch-up) from a restarted one (generation
// counters reset — the mirror must be rebuilt from generation zero).
func (c *Client) SyncRegistry(kinds []string, gens []uint64) (deltas []SyncDelta, boot uint64, err error) {
	if len(kinds) != len(gens) {
		return nil, 0, fmt.Errorf("transport: sync kinds/gens length mismatch: %d vs %d", len(kinds), len(gens))
	}
	resp, err := c.call(request{Op: "registry_sync", Kinds: kinds, Gens: gens})
	if err != nil {
		return nil, 0, err
	}
	return resp.Deltas, resp.Boot, nil
}

// PublishEventBatch forwards one coalesced batch of device readings (all of
// one kind and source) to the server's federation handler and reports how
// many the receiver admitted; the remainder was dropped by its admission
// budget and is accounted on the receiving node. stream/seq make a retried
// batch idempotent: replaying the same (stream, seq) after a mid-RPC
// connection loss returns the original admission count instead of
// ingesting twice (stream 0 opts out).
// A batch whose readings are all of one codec-supported type travels as a
// colv1 frame in the request's Bin; any other batch travels as the gob
// Readings slice and is counted by CodecFallbacks. It is StartEventBatch
// followed by Wait.
func (c *Client) PublishEventBatch(kind, source string, stream, seq uint64, readings []device.Reading) (accepted int, err error) {
	b, err := c.StartEventBatch(kind, source, stream, seq, readings)
	if err != nil {
		return 0, err
	}
	return b.Wait()
}

// EventBatchCall is one event batch on the wire: StartEventBatch sent it and
// Wait, called exactly once, collects the receiver's admission count. The
// zero value is an empty batch that sent nothing and waits for nothing.
type EventBatchCall struct {
	c    *Client
	sent sentCall
	// m is set when the batch was started through a ManagedClient, whose
	// health ladder must hear about a connection failure seen by Wait.
	m *ManagedClient
}

// StartEventBatch is the sending half of PublishEventBatch: it encodes the
// batch and writes its frame, and returns without waiting for the answer, so
// a forwarder can keep several batches of one stream in flight. The server
// handles a connection's requests in order: batches started in sequence on
// one client are ingested in that sequence. readings may be reused as soon
// as StartEventBatch returns.
func (c *Client) StartEventBatch(kind, source string, stream, seq uint64, readings []device.Reading) (EventBatchCall, error) {
	if len(readings) == 0 {
		return EventBatchCall{}, nil
	}
	sc, err := c.send(request{Op: "event_batch", Kind: kind, Facet: source, Stream: stream, Seq: seq, Readings: readings})
	return EventBatchCall{c: c, sent: sc}, err
}

// Wait blocks until the receiver answered the batch (or the call timeout,
// counted from now, passed) and reports how many readings it admitted.
func (b EventBatchCall) Wait() (accepted int, err error) {
	if b.c == nil {
		return 0, nil
	}
	resp, err := b.c.wait(b.sent)
	if err != nil {
		if b.m != nil && IsConnFailure(err) {
			b.m.connFailed(b.c)
		}
		return 0, err
	}
	return resp.Accepted, nil
}

// CodecFallbacks reports how many event batches and agg syncs this client
// shipped as gob slices because the payload had no column form.
func (c *Client) CodecFallbacks() uint64 { return c.codecFallbacks.Load() }

// PublishAggSync forwards one node's per-group partial aggregates for
// (kind, source) to the server's federation handler — the O(groups)
// alternative to forwarding raw readings when the consuming context's
// reduce phase is combinable. It reports how many consuming interactions
// merged the partials (0 = unrouted on the receiver).
// A sync whose partial values are all codec-supported scalars travels as a
// colv1 frame in the request's Bin; composite partials (a combiner's struct
// state) travel as the gob Groups slice and are counted by CodecFallbacks.
func (c *Client) PublishAggSync(kind, source, origin string, groups []GroupPartial) (int, error) {
	if len(groups) == 0 {
		return 0, nil
	}
	resp, err := c.call(request{Op: "agg_sync", Kind: kind, Facet: source, Origin: origin, Groups: groups})
	if err != nil {
		return 0, err
	}
	return resp.Accepted, nil
}

// Subscribe opens a remote event-driven stream.
func (c *Client) Subscribe(deviceID, source string) (device.Subscription, error) {
	c.mu.Lock()
	c.nextID++
	subID := c.nextID
	sub := &clientSub{client: c, id: subID, ch: make(chan device.Reading, 16)}
	c.subs[subID] = sub
	c.mu.Unlock()

	if _, err := c.call(request{Op: "subscribe", Device: deviceID, Facet: source, SubID: subID}); err != nil {
		c.mu.Lock()
		delete(c.subs, subID)
		c.mu.Unlock()
		return nil, err
	}
	return sub, nil
}

type clientSub struct {
	client *Client
	id     uint64
	ch     chan device.Reading
	once   sync.Once
}

// C implements device.Subscription.
func (s *clientSub) C() <-chan device.Reading { return s.ch }

// Cancel implements device.Subscription.
func (s *clientSub) Cancel() {
	s.client.mu.Lock()
	_, live := s.client.subs[s.id]
	delete(s.client.subs, s.id)
	s.client.mu.Unlock()
	if live {
		_, _ = s.client.call(request{Op: "cancel", SubID: s.id})
		s.closeOnce()
	}
}

func (s *clientSub) closeOnce() {
	s.once.Do(func() { close(s.ch) })
}

// RemoteDriver adapts a Client + registry entity into a device.Driver, so
// the runtime treats local and remote devices uniformly.
type RemoteDriver struct {
	client *Client
	entity registry.Entity
}

var _ device.Driver = (*RemoteDriver)(nil)

// NewRemoteDriver returns a proxy driver for entity reachable via client.
func NewRemoteDriver(client *Client, entity registry.Entity) *RemoteDriver {
	return &RemoteDriver{client: client, entity: entity}
}

// ID implements device.Driver.
func (r *RemoteDriver) ID() string { return string(r.entity.ID) }

// Kind implements device.Driver.
func (r *RemoteDriver) Kind() string { return r.entity.Kind }

// Kinds implements device.Driver.
func (r *RemoteDriver) Kinds() []string { return append([]string(nil), r.entity.Kinds...) }

// Attributes implements device.Driver.
func (r *RemoteDriver) Attributes() registry.Attributes { return r.entity.Attrs.Clone() }

// Query implements device.Driver.
func (r *RemoteDriver) Query(source string) (any, error) {
	return r.client.Query(string(r.entity.ID), source)
}

// Subscribe implements device.Driver.
func (r *RemoteDriver) Subscribe(source string) (device.Subscription, error) {
	return r.client.Subscribe(string(r.entity.ID), source)
}

// Invoke implements device.Driver.
func (r *RemoteDriver) Invoke(action string, args ...any) error {
	return r.client.Invoke(string(r.entity.ID), action, args...)
}

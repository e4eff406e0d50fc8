// Package federation connects orchestration runtimes into one multi-node
// deployment: a single DiaSpec application can span a device fleet
// partitioned across N nodes, which is the paper's design-driven continuum
// ("from home automation to city-scale deployments") taken past the single
// process. Each node:
//
//   - exports selected device kinds: their drivers are hosted on the node's
//     transport server and their registry entries are answered to peers
//     through generation-keyed delta sync (registry.ScanIfChanged), so an
//     unchanged fleet costs one tiny RPC per sync tick, not a scan;
//   - mirrors peers' registries: remote entities appear in the local
//     registry as mirror entries (Entity.Origin names the owner), making
//     discovery, periodic polling (via query_batch) and actuation (via
//     command_batch) work across nodes with no application changes;
//   - forwards device events: readings from exported sources are coalesced
//     into event_batch RPCs — bounded by a per-peer qos.Budget — that land
//     directly in the consuming node's ingestion shards (runtime.RemoteIngest),
//     so cross-node event delivery costs per-batch work, not per-event RPCs.
//
// Delivery accounting stays exact across node boundaries: every reading
// accepted from an attached device is either delivered to the consuming
// context or counted in exactly one row of a drop ledger — the sender's
// Stats.Drops() (forward budget, send failure, unrouted) or the receiving
// app's runtime.Stats.Drops() (admission, deadline, drain).
package federation

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/persist"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// Export declares one device kind a node offers to its peers. The kind's
// local drivers are hosted on the node's transport server and its registry
// entries are served through delta sync. When Source is nonempty, readings
// from that source are additionally forwarded to every event-forwarding
// peer — raw, or as node-local per-group partial aggregates when Aggregate
// is set (agg_sync: cross-node bytes per round become O(groups), not
// O(devices)).
type Export struct {
	Kind   string
	Source string
	// Aggregate, when non-nil, replaces raw event forwarding of this
	// source with partial-aggregate sync. Requires Source.
	Aggregate *Aggregate
}

// Endpoint is the surface a federation node needs from its process-local
// orchestration tier. Both *runtime.Runtime (one app) and *runtime.Host
// (N apps over one substrate) implement it; with a Host, RemoteIngest and
// RemoteAggregate route per app, so each tenant's federation accounting
// stays exact.
type Endpoint interface {
	// Registry is the entity registry the node syncs mirrors into.
	Registry() *registry.Registry
	// Persistence is the durability backend, nil without persistence.
	Persistence() *persist.Store
	// LocalDriver resolves a locally bound device driver.
	LocalDriver(id string) (device.Driver, bool)
	// ReportError sinks a federation failure into the endpoint's error
	// accounting.
	ReportError(component string, err error)
	// RemoteIngest lands a peer-forwarded reading batch of one sender
	// stream; see runtime.Runtime.RemoteIngest for the ordering and
	// accounting contract.
	RemoteIngest(kind, source string, stream uint64, readings []device.Reading) int
	// RemoteAggregate merges peer partial aggregates; see
	// runtime.Runtime.RemoteAggregate.
	RemoteAggregate(kind, source, origin string, partials []transport.GroupPartial) int
}

// Config configures a Node.
type Config struct {
	// Name identifies the node; mirrors of its entities carry it as
	// Entity.Origin. Required.
	Name string
	// Runtime is the node's orchestration tier: a *runtime.Runtime (one
	// app), a *runtime.Host (N apps over one substrate), or anything else
	// implementing Endpoint. Required. The node does not own it: stop it
	// separately.
	Runtime Endpoint
	// ListenAddr is the transport listen address. Default "127.0.0.1:0".
	ListenAddr string
	// Exports lists the device kinds (and event sources) this node offers.
	Exports []Export
}

// PeerConfig configures one peer connection.
type PeerConfig struct {
	// Name identifies the peer (diagnostics and MirrorCount lookups).
	Name string
	// Addr is the peer's transport address.
	Addr string
	// Import lists the device kinds to mirror from the peer.
	Import []string
	// ForwardEvents makes this node forward readings of its exported
	// sources to the peer in coalesced event_batch RPCs.
	ForwardEvents bool
	// ForwardBudget bounds readings in flight to this peer (admitted at a
	// forward buffer but not yet answered by the peer). Beyond it new
	// readings are dropped and counted. Default 65536; negative means
	// unbounded.
	ForwardBudget int
	// MaxBatch bounds one event_batch RPC. Default 256.
	MaxBatch int
	// CallTimeout bounds each RPC round trip. Default 10s.
	CallTimeout time.Duration
	// Dialer substitutes the transport dial function (chaos harnesses
	// inject faults here). Default plain TCP.
	Dialer transport.Dialer
	// HeartbeatInterval is the link's idle-probe period. Default 1s.
	HeartbeatInterval time.Duration
	// ReconnectBackoff / ReconnectBackoffMax bound the capped exponential
	// redial backoff. Defaults 50ms / 2s.
	ReconnectBackoff    time.Duration
	ReconnectBackoffMax time.Duration
	// PartitionedAfter is how many consecutive connection failures mark
	// the peer partitioned (vs merely degraded). Default 3.
	PartitionedAfter int
	// Seed makes the reconnect jitter sequence deterministic.
	Seed int64
}

func (c PeerConfig) withDefaults() PeerConfig {
	if c.ForwardBudget == 0 {
		c.ForwardBudget = 65536
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 10 * time.Second
	}
	return c
}

// Stats aggregates a node's federation counters. All values are cumulative
// except MirrorsLive, ExportedHosted and the peer health gauges. Each
// field's tag names the counter on the wire (Counters, docs/OPERATIONS.md);
// ",drop" marks the node's rows of the drop ledger, summed by Drops. The
// fields up to PeersUp are the live rows of statCounters, in row order;
// PeersUp and the fields after it are read from the peer links at Stats.
type Stats struct {
	// SyncRounds counts completed SyncPeers rounds.
	SyncRounds uint64 `counter:"sync_rounds"`
	// SyncErrors counts failed per-peer sync attempts.
	SyncErrors uint64 `counter:"sync_errors"`
	// KindsScanned counts sync answers that carried a changed kind (the
	// peer had to scan); steady state holds this constant while
	// SyncRounds grows.
	KindsScanned uint64 `counter:"kinds_scanned"`
	// MirrorsAdded/MirrorsUpdated/MirrorsRemoved count mirror-entry
	// mutations applied to the local registry.
	MirrorsAdded   uint64 `counter:"mirrors_added"`
	MirrorsUpdated uint64 `counter:"mirrors_updated"`
	MirrorsRemoved uint64 `counter:"mirrors_removed"`
	// MirrorsLive is the number of mirror entries currently registered on
	// behalf of peers. After churn plus a sync it must equal the owners'
	// live exported population — a higher value is a leak.
	MirrorsLive uint64 `counter:"mirrors_live"`
	// EventsForwarded counts readings sent to peers and admitted there.
	EventsForwarded uint64 `counter:"events_forwarded"`
	// EventBatchesSent counts event_batch RPCs issued;
	// EventsForwarded/EventBatchesSent is the achieved coalescing factor.
	EventBatchesSent uint64 `counter:"event_batches_sent"`
	// ForwardBudgetDrops counts readings refused at the sender because a
	// peer's in-flight budget was exhausted.
	ForwardBudgetDrops uint64 `counter:"forward_budget_drops,drop"`
	// ForwardSendDrops counts readings lost to failed event_batch RPCs.
	ForwardSendDrops uint64 `counter:"forward_send_drops,drop"`
	// ForwardUnrouted counts readings accepted from a device while no
	// event-forwarding peer was configured for their source.
	ForwardUnrouted uint64 `counter:"forward_unrouted,drop"`
	// ExportedHosted counts distinct local drivers currently hosted on
	// the node's transport server on behalf of exported kinds
	// (overlapping exports of one kind share a refcounted hosting).
	ExportedHosted uint64 `counter:"exported_hosted"`
	// ExporterReconciles counts registry rescans forced by an exporter
	// falling so far behind that its watcher queue passed its bound and
	// lost notifications; 0 in healthy operation, bind storms included.
	ExporterReconciles uint64 `counter:"exporter_reconciles"`
	// AggSyncsSent counts agg_sync RPCs carrying partial aggregates to
	// peers; AggGroupsSent counts the group partials they carried.
	// AggGroupsSent/AggSyncsSent is the achieved coalescing factor.
	AggSyncsSent  uint64 `counter:"agg_syncs_sent"`
	AggGroupsSent uint64 `counter:"agg_groups_sent"`
	// AggSyncErrors counts failed agg_sync RPCs (their groups are
	// re-marked dirty and retried; the protocol is idempotent).
	AggSyncErrors uint64 `counter:"agg_sync_errors"`
	// AggSyncsUnrouted counts agg_syncs a peer accepted but merged into
	// no interaction (no consuming grouped context, or its handler lacks
	// a Combiner).
	AggSyncsUnrouted uint64 `counter:"agg_syncs_unrouted"`
	// ForwardRetries counts event_batch bursts that were spooled through a
	// peer outage and replayed after the link healed (each retry keeps its
	// readings' budget units held — that is the retry-queue bound).
	ForwardRetries uint64 `counter:"forward_retries"`
	// PeerRestartsSeen counts boot-epoch changes observed in registry
	// syncs: the peer process restarted, so cached generations were
	// discarded and its mirror set rebuilt from scratch. An ordinary
	// partition/heal never increments this — reconnect catch-up is pure
	// delta replay.
	PeerRestartsSeen uint64 `counter:"peer_restarts_seen"`
	// EventDupsSuppressed counts replayed event_batch RPCs this node
	// answered from the replay-protection cache instead of re-ingesting:
	// the sender lost the response mid-partition and retried a batch that
	// had already landed.
	EventDupsSuppressed uint64 `counter:"event_dups_suppressed"`
	// PeersUp/PeersDegraded/PeersPartitioned are the current peer-link
	// health gauges (they sum to the number of added peers).
	PeersUp          uint64 `counter:"peers_up"`
	PeersDegraded    uint64 `counter:"peers_degraded"`
	PeersPartitioned uint64 `counter:"peers_partitioned"`
	// PeerReconnects counts successful peer-link reconnections;
	// HeartbeatMisses counts failed heartbeat probes across all peers.
	PeerReconnects  uint64 `counter:"peer_reconnects"`
	HeartbeatMisses uint64 `counter:"heartbeat_misses"`
	// CodecFallbacks counts event batches and agg syncs sent to peers as
	// gob slices instead of colv1 column frames because the payload has no
	// column form (indexed readings, nil, mixed or composite value types).
	// A fleet on scalar payloads holds this at zero.
	CodecFallbacks uint64 `counter:"codec_fallbacks"`
}

// statTable reads the Stats tags once.
var statTable = metrics.NewTable[Stats]()

// Counters flattens the snapshot into a name → value map — the gauge form
// runtime.Host.AddGauges ingests. New registers it as the "federation"
// gauge source of an endpoint that has an operations plane (runtime.Host),
// so the host's Stats(), fleet_stats and /metrics carry every row.
func (s Stats) Counters() map[string]uint64 { return statTable.Map(&s) }

// Drops sums the node's drop ledger: every reading it accepted from a
// device for forwarding and then shed before a peer admitted it. A
// cross-node ledger adds the receiving apps' runtime.Stats.Drops().
func (s Stats) Drops() uint64 { return statTable.Drops(&s) }

// Rows of statCounters, one per live Stats field and in field order.
const (
	statSyncRounds = iota
	statSyncErrors
	statKindsScanned
	statMirrorsAdded
	statMirrorsUpdated
	statMirrorsRemoved
	statMirrorsLive
	statEventsForwarded
	statEventBatchesSent
	statForwardBudgetDrops
	statForwardSendDrops
	statForwardUnrouted
	statExportedHosted
	statExporterReconciles
	statAggSyncsSent
	statAggGroupsSent
	statAggSyncErrors
	statAggSyncsUnrouted
	statForwardRetries
	statPeerRestartsSeen
	statEventDupsSuppressed
	numStats // the peer health gauges from PeersUp on are read at Stats
)

// statCounters is the live, lock-free form of Stats.
type statCounters [numStats]atomic.Uint64

func (c *statCounters) snapshot() Stats {
	var s Stats
	statTable.Load(&s, c[:])
	return s
}

// Node is one federation endpoint: it hosts this process's exported devices,
// mirrors peers' registries into the local one, and forwards exported device
// events to interested peers. Create with New, connect with AddPeer, drive
// sync with SyncPeers (or Run), and Close when done.
type Node struct {
	name    string
	rt      Endpoint
	reg     *registry.Registry
	srv     *transport.Server
	exports []Export
	// store is the runtime's durability backend (nil without persistence):
	// the boot epoch is restored from (or recorded into) it, peer sync
	// cursors are journaled through it, and SyncKinds barriers it so every
	// advertised generation is durable before a peer can cache it.
	store *persist.Store

	mu     sync.Mutex
	peers  map[string]*peer
	closed bool
	stopCh chan struct{} // closed by Close; unblocks Run loops
	wg     sync.WaitGroup

	// sinks holds one fan-out sink per exported (kind, source) — raw
	// forwarding or partial aggregation; peer lists are copy-on-write so
	// the device emission hot path reads them with one atomic load.
	sinks map[string]exportSink

	// hostCounts refcounts server hostings per device ID: several exports
	// may cover one device (same kind, different sources), and the driver
	// must stay hosted until the last of them detaches.
	hostMu     sync.Mutex
	hostCounts map[string]int

	exporters []*exporter
	watchers  []*registry.Watcher
	// exporterLag delays each exporter batch by the stored duration. It is
	// zero except in tests that hold a node's exporters behind its registry.
	exporterLag atomic.Int64

	// dedup holds per-sender-stream replay protection for event_batch: the
	// highest sequence number ingested and a ring of the last forwardWindow
	// admission counts, which covers every chunk a sender can have
	// unacknowledged. Entries are small and bounded by the number of peer
	// forward buffers that ever talked to this node.
	dedupMu sync.Mutex
	dedup   map[uint64]*streamState

	stats statCounters
}

// New starts a federation node: it opens the transport server, installs the
// federation handler, and begins tracking (hosting + event-attaching) local
// devices of the exported kinds.
func New(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, errors.New("federation: node needs a name")
	}
	if cfg.Runtime == nil {
		return nil, errors.New("federation: node needs a runtime")
	}
	type exportID struct{ kind, source string }
	seen := make(map[exportID]struct{}, len(cfg.Exports))
	for _, ex := range cfg.Exports {
		if ex.Kind == "" {
			return nil, errors.New("federation: export needs a kind")
		}
		id := exportID{ex.Kind, ex.Source}
		if _, dup := seen[id]; dup {
			// Two exporters sharing one sink would attach it twice per
			// device and double-forward every reading, silently breaking
			// exact delivery accounting.
			return nil, fmt.Errorf("federation: duplicate export %s/%s", ex.Kind, ex.Source)
		}
		seen[id] = struct{}{}
		if agg := ex.Aggregate; agg != nil {
			if ex.Source == "" {
				return nil, fmt.Errorf("federation: export %s: Aggregate requires a Source", ex.Kind)
			}
			if agg.GroupAttr == "" {
				return nil, fmt.Errorf("federation: export %s/%s: Aggregate needs a GroupAttr", ex.Kind, ex.Source)
			}
			if agg.Handler == nil {
				return nil, fmt.Errorf("federation: export %s/%s: Aggregate needs a Handler", ex.Kind, ex.Source)
			}
			if _, ok := agg.Handler.(runtime.Combiner); !ok {
				return nil, fmt.Errorf("federation: export %s/%s: Aggregate handler must implement runtime.Combiner", ex.Kind, ex.Source)
			}
		}
	}
	addr := cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	// A durable node that recovered a boot epoch reuses it, so peers treat
	// the reborn process as the same incarnation (catch-up stays a delta
	// sync); a fresh one records its epoch before any peer can observe it.
	store := cfg.Runtime.Persistence()
	var boot uint64 // 0 keeps the fresh epoch NewServer draws
	if store != nil {
		boot = store.Boot()
	}
	srv, err := transport.NewServer(addr, transport.WithBoot(boot))
	if err != nil {
		return nil, err
	}
	if store != nil && store.Boot() == 0 {
		if err := store.SetBoot(srv.Boot()); err != nil {
			srv.Close()
			return nil, fmt.Errorf("federation: persist boot epoch: %w", err)
		}
	}
	n := &Node{
		name:       cfg.Name,
		rt:         cfg.Runtime,
		reg:        cfg.Runtime.Registry(),
		srv:        srv,
		exports:    cfg.Exports,
		store:      store,
		peers:      make(map[string]*peer),
		sinks:      make(map[string]exportSink),
		hostCounts: make(map[string]int),
		dedup:      make(map[uint64]*streamState),
		stopCh:     make(chan struct{}),
	}
	srv.ServeFederation(nodeHandler{n})
	for _, ex := range cfg.Exports {
		if ex.Source != "" {
			key := exportKey(ex.Kind, ex.Source)
			if _, dup := n.sinks[key]; !dup {
				if ex.Aggregate != nil {
					n.sinks[key] = newAggSink(n, ex.Kind, ex.Source, ex.Aggregate)
				} else {
					n.sinks[key] = newFwdSink(n, ex.Kind, ex.Source)
				}
			}
		}
	}
	for _, ex := range cfg.Exports {
		if err := n.startExporter(ex); err != nil {
			n.Close()
			return nil, err
		}
	}
	// Endpoints with an operations plane (runtime.Host) get the node's
	// counters and per-peer health feed wired automatically, so
	// fleet_stats and /metrics carry diaspec_federation_* and
	// diaspec_peer_* series without example code doing anything.
	if ops, ok := cfg.Runtime.(interface {
		AddGauges(name string, fn func() map[string]uint64)
		AddPeerSource(func() []transport.PeerStatusRecord)
	}); ok {
		ops.AddGauges("federation", func() map[string]uint64 { return n.Stats().Counters() })
		ops.AddPeerSource(n.PeerStatuses)
	}
	return n, nil
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Addr returns the node's transport address — what peers pass to AddPeer.
func (n *Node) Addr() string { return n.srv.Addr() }

// Stats returns a snapshot of the node's federation counters, including the
// current peer-link health gauges.
func (n *Node) Stats() Stats {
	s := n.stats.snapshot()
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	for _, p := range peers {
		switch p.client.Health() {
		case transport.HealthUp:
			s.PeersUp++
		case transport.HealthDegraded:
			s.PeersDegraded++
		case transport.HealthPartitioned:
			s.PeersPartitioned++
		}
		s.PeerReconnects += p.client.Reconnects()
		s.HeartbeatMisses += p.client.HeartbeatMisses()
		s.CodecFallbacks += p.client.CodecFallbacks()
	}
	return s
}

// PeerHealth reports the named peer link's current health state.
func (n *Node) PeerHealth(peerName string) (transport.Health, bool) {
	n.mu.Lock()
	p := n.peers[peerName]
	n.mu.Unlock()
	if p == nil {
		return 0, false
	}
	return p.client.Health(), true
}

// PeerStatuses snapshots every peer link — name, health-ladder state, and
// cumulative wire bytes — sorted by peer name. It is the per-peer feed of
// the operations plane: hand it to runtime.Host.AddPeerSource so fleet_stats
// and the Prometheus endpoint carry diaspec_peer_* series.
func (n *Node) PeerStatuses() []transport.PeerStatusRecord {
	n.mu.Lock()
	recs := make([]transport.PeerStatusRecord, 0, len(n.peers))
	for name, p := range n.peers {
		recs = append(recs, transport.PeerStatusRecord{
			Name:      name,
			Health:    p.client.Health().String(),
			BytesSent: p.client.BytesSent(),
			BytesRecv: p.client.BytesReceived(),
		})
	}
	n.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	return recs
}

func exportKey(kind, source string) string { return kind + "\x00" + source }

// hostDevice hosts drv on the transport server, refcounted per device so
// overlapping exports of one kind share the hosting; ExportedHosted counts
// distinct hosted drivers.
func (n *Node) hostDevice(id string, drv device.Driver) {
	n.hostMu.Lock()
	defer n.hostMu.Unlock()
	n.hostCounts[id]++
	if n.hostCounts[id] == 1 {
		n.srv.Host(drv)
		n.stats[statExportedHosted].Add(1)
	}
}

// unhostDevice releases one export's claim on the device's hosting,
// unhosting only when the last claim drops.
func (n *Node) unhostDevice(id string) {
	n.hostMu.Lock()
	defer n.hostMu.Unlock()
	if n.hostCounts[id] == 0 {
		return
	}
	n.hostCounts[id]--
	if n.hostCounts[id] == 0 {
		delete(n.hostCounts, id)
		n.srv.Unhost(id)
		n.stats[statExportedHosted].Add(^uint64(0))
	}
}

// exportedKind reports whether kind is offered to peers.
func (n *Node) exportedKind(kind string) bool {
	for _, ex := range n.exports {
		if ex.Kind == kind {
			return true
		}
	}
	return false
}

// AddPeer connects to a peer node. Mirroring starts with the next SyncPeers
// round; event forwarding (when enabled) starts immediately for readings
// emitted from now on.
func (n *Node) AddPeer(cfg PeerConfig) error {
	cfg = cfg.withDefaults()
	if cfg.Name == "" || cfg.Addr == "" {
		return errors.New("federation: peer needs a name and an address")
	}
	p := &peer{
		n:          n,
		name:       cfg.Name,
		cfg:        cfg,
		budget:     qos.NewBudget(cfg.ForwardBudget),
		gens:       make(map[string]uint64),
		mirrors:    make(map[string]map[registry.ID]mirrorEntry),
		buffers:    make(map[string]*fwdBuffer),
		aggBuffers: make(map[string]*aggBuffer),
	}
	n.restorePeerState(p)
	// The OnUp hook can only fire after a disconnect, i.e. well after
	// p.client below is set: the initial managed dial is synchronous and
	// never reports up.
	cli, err := transport.DialManaged(transport.ManagedConfig{
		Addr:              cfg.Addr,
		Dialer:            cfg.Dialer,
		CallTimeout:       cfg.CallTimeout,
		HeartbeatInterval: cfg.HeartbeatInterval,
		BackoffBase:       cfg.ReconnectBackoff,
		BackoffMax:        cfg.ReconnectBackoffMax,
		PartitionedAfter:  cfg.PartitionedAfter,
		Seed:              cfg.Seed,
		OnUp:              func() { p.onUp() },
	})
	if err != nil {
		return err
	}
	p.client = cli
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		cli.Close()
		return errors.New("federation: node closed")
	}
	if _, dup := n.peers[cfg.Name]; dup {
		n.mu.Unlock()
		cli.Close()
		return fmt.Errorf("federation: peer %s already added", cfg.Name)
	}
	n.peers[cfg.Name] = p
	n.mu.Unlock()

	if cfg.ForwardEvents {
		for _, ex := range n.exports {
			if ex.Source == "" {
				continue
			}
			switch sink := n.sinks[exportKey(ex.Kind, ex.Source)].(type) {
			case *aggSink:
				sink.addBuffer(p.aggBufferFor(sink))
			case *fwdSink:
				sink.addBuffer(p.bufferFor(ex.Kind, ex.Source))
			}
		}
	}
	return nil
}

// restorePeerState rebuilds a re-added peer's sync state from the durable
// store: the cursor (generations + boot epoch) journaled by the previous
// incarnation, and the mirror bookkeeping for the peer's entities that
// recovery re-registered (mirror registrations are journaled like any other
// mutation). With both restored, the next sync round requests only the
// generation gap accumulated while this node was down — the owner answers
// with the changed kinds, not a full mirror rebuild.
func (n *Node) restorePeerState(p *peer) {
	if n.store == nil {
		return
	}
	rec := n.store.Recovered()
	if rec == nil {
		return
	}
	if ps, ok := rec.Peers[p.name]; ok {
		p.lastBoot = ps.Boot
		for k, v := range ps.Gens {
			p.gens[k] = v
		}
	}
	adopted := 0
	for _, kind := range p.cfg.Import {
		n.reg.Scan(registry.Query{Kind: kind}, func(e registry.Entity) bool {
			if e.Origin != p.name {
				return true
			}
			m := p.mirrors[kind]
			if m == nil {
				m = make(map[registry.ID]mirrorEntry)
				p.mirrors[kind] = m
			}
			if _, dup := m[e.ID]; !dup {
				m[e.ID] = mirrorEntry{endpoint: e.Endpoint, attrs: e.Attrs.Clone()}
				adopted++
			}
			return true
		})
	}
	n.stats[statMirrorsLive].Add(uint64(adopted))
}

// PeerBytes reports the total bytes sent to and received from the named
// peer's transport connection — the wire-payload gauge for sync-cost
// experiments (agg_sync stays O(groups) per round while raw event
// forwarding grows O(devices)).
func (n *Node) PeerBytes(peerName string) (sent, recv uint64) {
	n.mu.Lock()
	p := n.peers[peerName]
	n.mu.Unlock()
	if p == nil {
		return 0, 0
	}
	return p.client.BytesSent(), p.client.BytesReceived()
}

// MirrorCount reports how many entities are currently mirrored from the
// named peer (optionally restricted to one kind with kind != ""). It is the
// leak probe for churn scenarios: after the owner churns and a sync round
// completes, MirrorCount must equal the owner's live exported population.
func (n *Node) MirrorCount(peerName, kind string) int {
	n.mu.Lock()
	p := n.peers[peerName]
	n.mu.Unlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if kind != "" {
		return len(p.mirrors[kind])
	}
	total := 0
	for _, m := range p.mirrors {
		total += len(m)
	}
	return total
}

// SyncPeers performs one synchronous delta-sync round against every peer:
// unchanged kinds cost one generation comparison on the owner and a few
// bytes on the wire; changed kinds are rescanned and the mirror diff is
// applied to the local registry. Peers sync concurrently, so one slow or
// dead peer delays the round by at most its own RPC timeout instead of
// head-of-line-blocking every healthy peer's mirror updates. The first
// error (by peer order) is returned after all peers were attempted.
func (n *Node) SyncPeers() error {
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			if err := n.syncPeer(p); err != nil {
				n.stats[statSyncErrors].Add(1)
				errs[i] = fmt.Errorf("federation: sync %s: %w", p.name, err)
			}
		}(i, p)
	}
	wg.Wait()
	n.stats[statSyncRounds].Add(1)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (n *Node) syncPeer(p *peer) error {
	if len(p.cfg.Import) == 0 {
		return nil
	}
	kinds := p.cfg.Import
	gens := make([]uint64, len(kinds))
	p.mu.Lock()
	for i, k := range kinds {
		gens[i] = p.gens[k]
	}
	p.mu.Unlock()
	deltas, boot, err := p.client.SyncRegistry(kinds, gens)
	if err != nil {
		return err
	}
	p.mu.Lock()
	prevBoot := p.lastBoot
	p.lastBoot = boot
	restarted := prevBoot != 0 && boot != 0 && boot != prevBoot
	if restarted {
		// The answering server is a new incarnation: its generation
		// counters restarted, so the generations this node cached against
		// the dead incarnation are meaningless (and could coincide with
		// fresh ones, silently masking changes).
		p.gens = make(map[string]uint64)
	}
	p.mu.Unlock()
	if restarted {
		n.stats[statPeerRestartsSeen].Add(1)
		deltas, _, err = p.client.SyncRegistry(kinds, make([]uint64, len(kinds)))
		if err != nil {
			return err
		}
	}
	for _, d := range deltas {
		// After a detected restart every delta is authoritative, even an
		// "unchanged" one (generation 0 = the new incarnation never
		// registered this kind): stale mirrors of the dead incarnation
		// must go. On the ordinary path unchanged kinds are skipped — heal
		// catch-up costs only the kinds that actually changed, never a
		// full resync.
		if !d.Changed && !restarted {
			continue
		}
		if d.Changed {
			n.stats[statKindsScanned].Add(1)
		}
		n.applyDelta(p, d)
	}
	// Journal the cursor this round ended on (applyDelta only advances
	// p.gens for fully applied kinds, so a crash replays exactly the
	// unfinished ones). Flushed on the store's background cadence — losing
	// the tail costs a restarted node a slightly wider gap, never a stale
	// mirror taken for current.
	if n.store != nil {
		p.mu.Lock()
		ps := persist.PeerState{Boot: p.lastBoot, Gens: make(map[string]uint64, len(p.gens))}
		for k, v := range p.gens {
			ps.Gens[k] = v
		}
		p.mu.Unlock()
		n.store.SavePeer(p.name, ps)
	}
	return nil
}

// applyDelta reconciles one kind's mirror set against the owner's answer:
// new entities are registered (with Origin naming the owner), changed ones
// updated, absent ones unregistered. The generation is recorded only when
// every mutation succeeded, so a failed application re-requests the full
// delta (and retries the failed mutations) on the next round.
func (n *Node) applyDelta(p *peer, d transport.SyncDelta) {
	want := make(map[registry.ID]registry.Entity, len(d.Entities))
	for _, e := range d.Entities {
		want[e.ID] = e
	}
	p.mu.Lock()
	have := p.mirrors[d.Kind]
	if have == nil {
		have = make(map[registry.ID]mirrorEntry)
		p.mirrors[d.Kind] = have
	}
	var adds, updates []registry.Entity
	var removes []registry.ID
	for id, e := range want {
		cur, ok := have[id]
		if !ok {
			adds = append(adds, e)
			continue
		}
		if cur.endpoint != e.Endpoint || !maps.Equal(cur.attrs, e.Attrs) {
			updates = append(updates, e)
		}
	}
	for id := range have {
		if _, ok := want[id]; !ok {
			removes = append(removes, id)
		}
	}
	p.mu.Unlock()

	// Apply registry mutations outside the peer lock; bookkeeping follows
	// each successful mutation. SyncPeers rounds for one peer never run
	// concurrently with each other in normal use (callers serialize), but
	// the bookkeeping is still guarded for Run + explicit-sync overlap.
	failed := false
	for _, e := range adds {
		if err := n.reg.Register(e); err != nil {
			n.rt.ReportError("federation:"+n.name, fmt.Errorf("mirror %s from %s: %w", e.ID, p.name, err))
			failed = true
			continue
		}
		p.mu.Lock()
		p.mirrors[d.Kind][e.ID] = mirrorEntry{endpoint: e.Endpoint, attrs: e.Attrs.Clone()}
		p.mu.Unlock()
		n.stats[statMirrorsAdded].Add(1)
		n.stats[statMirrorsLive].Add(1)
	}
	for _, e := range updates {
		if err := n.reg.Update(e.ID, e.Attrs, e.Endpoint); err != nil {
			n.rt.ReportError("federation:"+n.name, fmt.Errorf("mirror update %s from %s: %w", e.ID, p.name, err))
			failed = true
			continue
		}
		p.mu.Lock()
		p.mirrors[d.Kind][e.ID] = mirrorEntry{endpoint: e.Endpoint, attrs: e.Attrs.Clone()}
		p.mu.Unlock()
		n.stats[statMirrorsUpdated].Add(1)
	}
	for _, id := range removes {
		if err := n.reg.Unregister(id); err != nil && !errors.Is(err, registry.ErrNotFound) {
			n.rt.ReportError("federation:"+n.name, fmt.Errorf("mirror remove %s from %s: %w", id, p.name, err))
			failed = true
			continue
		}
		p.mu.Lock()
		delete(p.mirrors[d.Kind], id)
		p.mu.Unlock()
		n.stats[statMirrorsRemoved].Add(1)
		n.stats[statMirrorsLive].Add(^uint64(0))
	}
	if failed {
		return // keep the old generation: the next round re-requests and retries
	}
	p.mu.Lock()
	p.gens[d.Kind] = d.Gen
	p.mu.Unlock()
}

// Run drives SyncPeers on the given interval until stop closes or the node
// is closed (stop may be nil to rely on Close alone) — the background form
// of federation sync for wall-clock deployments. Sync errors are counted in
// Stats and do not stop the loop. Calling Run on a closed node is a no-op.
func (n *Node) Run(stop <-chan struct{}, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-n.stopCh:
				return
			case <-ticker.C:
				_ = n.SyncPeers() // errors counted in Stats
			}
		}
	}()
}

// Close tears the node down: exporters detach from their devices, pending
// forward buffers are flushed, peer connections close, and the transport
// server stops. Mirror entries this node registered locally are removed so
// a restarted node starts clean.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.closed = true
	close(n.stopCh)
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	watchers := n.watchers
	exporters := n.exporters
	n.watchers, n.exporters = nil, nil
	n.mu.Unlock()

	for _, w := range watchers {
		w.Cancel()
	}
	for _, ex := range exporters {
		ex.table.Stop()
	}
	for _, p := range peers {
		p.stopBuffers()
	}
	n.wg.Wait()
	for _, p := range peers {
		p.client.Close()
		p.removeMirrors(n)
	}
	n.srv.Close()
}

// removeMirrors unregisters every mirror entry this node holds for p.
func (p *peer) removeMirrors(n *Node) {
	p.mu.Lock()
	var ids []registry.ID
	for _, m := range p.mirrors {
		for id := range m {
			ids = append(ids, id)
		}
	}
	p.mirrors = make(map[string]map[registry.ID]mirrorEntry)
	p.mu.Unlock()
	for _, id := range ids {
		if err := n.reg.Unregister(id); err == nil {
			n.stats[statMirrorsRemoved].Add(1)
			n.stats[statMirrorsLive].Add(^uint64(0))
		}
	}
}

// mirrorEntry is the locally recorded shape of one mirrored entity, used to
// detect attribute/endpoint changes without a registry read.
type mirrorEntry struct {
	endpoint string
	attrs    registry.Attributes
}

// peer is one connected federation peer: the transport client, the mirror
// bookkeeping for kinds imported from it, and the event-forwarding buffers
// toward it.
type peer struct {
	n      *Node
	name   string
	cfg    PeerConfig
	client *transport.ManagedClient
	budget *qos.Budget

	mu         sync.Mutex
	gens       map[string]uint64
	mirrors    map[string]map[registry.ID]mirrorEntry
	buffers    map[string]*fwdBuffer
	aggBuffers map[string]*aggBuffer
	stopped    bool
	// lastBoot is the peer server's boot epoch as of the last registry
	// sync; a change means the peer process restarted and its generation
	// counters reset, so cached generations must be discarded.
	lastBoot uint64
}

// onUp runs on each successful reconnect: every aggregate export re-marks
// its full group set dirty toward this peer. The agg_sync protocol is
// idempotent (each sync replaces the sender's previous partials group by
// group), so the replay is safe against a peer that merely blinked and
// necessary against one that restarted and lost this node's partials.
// Spooled event_batch bursts need no action here — their flushers block on
// the client's UpChan and wake on the same transition.
func (p *peer) onUp() {
	p.mu.Lock()
	bufs := make([]*aggBuffer, 0, len(p.aggBuffers))
	for _, b := range p.aggBuffers {
		bufs = append(bufs, b)
	}
	p.mu.Unlock()
	for _, b := range bufs {
		b.sink.seed(b)
	}
}

// nodeHandler adapts a Node to the transport.FederationHandler interface
// without exposing the wire entry points on the public Node API.
type nodeHandler struct{ n *Node }

// SyncKinds implements transport.FederationHandler: one generation-keyed
// delta per requested kind. Mirrors (entities owned by other nodes) are
// never re-exported; local entities are stamped with this node's name and
// transport address so the peer can reach them.
func (h nodeHandler) SyncKinds(kinds []string, gens []uint64) []transport.SyncDelta {
	n := h.n
	out := make([]transport.SyncDelta, len(kinds))
	if n.store != nil {
		if err := n.store.Barrier(); err != nil {
			// The store cannot promise durability (crashed or closing): a
			// generation advertised now might not survive a restart, and a
			// peer that cached it would silently skip the lost mutations
			// after recovery. Answer "unchanged" for every kind instead —
			// peers keep their cursors and retry next round.
			for i, kind := range kinds {
				out[i] = transport.SyncDelta{Kind: kind}
			}
			return out
		}
	}
	addr := n.srv.Addr()
	var marks []exporterMark
	for i, kind := range kinds {
		if !n.exportedKind(kind) {
			out[i] = transport.SyncDelta{Kind: kind}
			continue
		}
		var since uint64
		if i < len(gens) {
			since = gens[i]
		}
		var ents []registry.Entity
		gen, changed := n.reg.ScanIfChanged(kind, since, func(e registry.Entity) bool {
			if e.Origin != "" {
				return true // a mirror; its owner exports it
			}
			ce := registry.Entity{
				ID:       e.ID,
				Kind:     e.Kind,
				Kinds:    append([]string(nil), e.Kinds...),
				Attrs:    e.Attrs.Clone(),
				Endpoint: e.Endpoint,
				Origin:   n.name,
				Bound:    e.Bound,
			}
			if ce.Endpoint == "" {
				ce.Endpoint = addr
			}
			ents = append(ents, ce)
			return true
		})
		if changed {
			// The scan can see a registration the kind's exporters have not
			// applied yet; a peer that got the mirror first would reach a
			// device this node does not host.
			marks = n.markExporters(kind, marks)
		}
		out[i] = transport.SyncDelta{Kind: kind, Gen: gen, Changed: changed, Entities: ents}
	}
	// One deadline for the whole call: lagging exporters on many kinds must
	// not hold the peer past its call timeout.
	waitApplied(marks, time.Now().Add(exporterCatchUp))
	return out
}

// IngestEventBatch implements transport.FederationHandler: forwarded
// readings land in the runtime's ingestion shards as if their devices had
// pushed locally. A batch replayed under a (stream, seq) the node already
// ingested — the sender lost the response when the connection died mid-RPC
// and spooled the chunk for replay — is suppressed instead of re-ingested:
// a stream's flusher sends its chunks in sequence order on every connection
// and replays a severed window from its oldest unacknowledged chunk, so the
// set ingested is always a prefix of the sequence and any seq at or below
// the highest ingested one is a replay. It is answered the count it was
// answered the first time, from the stream's ring.
// The per-stream mutex serializes ingestion within a stream because a dying
// connection's buffered requests can race the replay arriving on the fresh
// connection — without it both copies could pass the check before either
// records the seq. Whichever copy of a chunk arrives first is ingested; the
// other is the replay.
func (h nodeHandler) IngestEventBatch(stream, seq uint64, kind, source string, readings []device.Reading) int {
	n := h.n
	if stream == 0 {
		return n.rt.RemoteIngest(kind, source, stream, readings)
	}
	n.dedupMu.Lock()
	st, ok := n.dedup[stream]
	if !ok {
		st = &streamState{}
		n.dedup[stream] = st
	}
	n.dedupMu.Unlock()

	st.mu.Lock()
	defer st.mu.Unlock()
	slot := &st.ring[seq%forwardWindow]
	if seq <= st.max {
		n.stats[statEventDupsSuppressed].Add(1)
		if slot.seq == seq {
			return slot.accepted
		}
		// Older than the ring: a chunk surfacing from a dead connection's
		// buffer after the sender has long moved on. Its response goes
		// nowhere, so the count only needs to not double-ingest.
		return 0
	}
	accepted := n.rt.RemoteIngest(kind, source, stream, readings)
	st.max = seq
	*slot = ingestedChunk{seq: seq, accepted: accepted}
	return accepted
}

// streamState is the replay-protection state of one sender stream: the
// highest sequence number ingested and, for the last forwardWindow chunks
// ingested, the admission count each was answered with. A sender keeps at
// most forwardWindow chunks unacknowledged, so every chunk it can still
// replay is in the ring (it replaced a single (seq, accepted) pair, which
// sufficed while flushers sent one chunk at a time).
type streamState struct {
	mu   sync.Mutex
	max  uint64
	ring [forwardWindow]ingestedChunk // slot seq % forwardWindow
}

// ingestedChunk is one ring entry; the seq tells a slot's current tenant
// from an older chunk that mapped to the same slot.
type ingestedChunk struct {
	seq      uint64
	accepted int
}

// IngestAggSync implements transport.FederationHandler: a peer's
// node-local per-group partial aggregates merge into every consuming
// `when provided … grouped by …` interaction with a Combiner handler.
func (h nodeHandler) IngestAggSync(kind, source, origin string, groups []transport.GroupPartial) int {
	return h.n.rt.RemoteAggregate(kind, source, origin, groups)
}

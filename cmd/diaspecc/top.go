package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// `diaspecc top` is the live fleet view: it polls the `fleet_stats` admin op
// over the real transport and redraws a terminal dashboard — per-app event
// rates, drops and dirty-group ratios, peer link health, budget occupancy,
// registry population. Rendering is a pure function of two consecutive
// snapshots (renderTop), so the frame logic is unit-testable without a
// terminal or a host.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7707", "host admin address")
	interval := fs.Duration("interval", time.Second, "poll/redraw period")
	frames := fs.Int("n", 0, "stop after N frames (0 = run until interrupted)")
	plain := fs.Bool("plain", false, "append frames instead of redrawing (for logs/pipes)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cli, err := dialAdmin(*addr)
	if err != nil {
		return err
	}
	defer cli.Close()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	prev, err := cli.FleetStats()
	if err != nil {
		return err
	}
	prevAt := time.Now()
	// First frame renders immediately with rates unknown (dt=0 suppresses
	// the per-second columns); subsequent frames show true deltas.
	frame := renderTop(*addr, prev, prev, 0)
	if !*plain {
		fmt.Print("\x1b[2J\x1b[H")
	}
	fmt.Print(frame)
	for n := 1; *frames == 0 || n < *frames; n++ {
		select {
		case <-sig:
			return nil
		case <-time.After(*interval):
		}
		cur, err := cli.FleetStats()
		if err != nil {
			return fmt.Errorf("fleet_stats poll: %w", err)
		}
		now := time.Now()
		frame = renderTop(*addr, prev, cur, now.Sub(prevAt))
		if !*plain {
			fmt.Print("\x1b[2J\x1b[H")
		}
		fmt.Print(frame)
		prev, prevAt = cur, now
	}
	return nil
}

// counterDelta is the per-second rate of counter name between two snapshots
// of one scope, or 0 when dt is unknown.
func counterDelta(prev, cur map[string]uint64, name string, dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	p, c := prev[name], cur[name]
	if c < p { // counter reset (host restarted between polls)
		p = 0
	}
	return float64(c-p) / dt.Seconds()
}

// appByID indexes a snapshot's app records for delta lookups.
func appByID(recs []transport.AppStatsRecord) map[string]map[string]uint64 {
	m := make(map[string]map[string]uint64, len(recs))
	for _, r := range recs {
		m[r.App] = r.Counters
	}
	return m
}

// appDrops names the app drop ledger: runtime.Stats' counters tagged ",drop".
var appDrops = metrics.NewTable[runtime.Stats]().DropNames()

// dropsOf sums one app scope's drop ledger: runtime.Stats.Drops on the wire.
func dropsOf(c map[string]uint64) (n uint64) {
	for _, name := range appDrops {
		n += c[name]
	}
	return n
}

// renderTop renders one dashboard frame from two consecutive fleet_stats
// snapshots taken dt apart (dt <= 0 renders absolute counters only).
func renderTop(addr string, prev, cur transport.FleetStats, dt time.Duration) string {
	var b strings.Builder
	state := "serving"
	if cur.Draining {
		state = "DRAINING"
	}
	fmt.Fprintf(&b, "diaspec fleet @ %s — %s — %d app(s)", addr, state, len(cur.Apps))
	if len(cur.Peers) > 0 {
		var up, deg, part int
		for _, p := range cur.Peers {
			switch p.Health {
			case "up":
				up++
			case "degraded":
				deg++
			default:
				part++
			}
		}
		fmt.Fprintf(&b, " — peers %d up / %d degraded / %d partitioned", up, deg, part)
	}
	b.WriteString("\n\n")

	prevApps := appByID(prev.Apps)
	fmt.Fprintf(&b, "%-18s %9s %12s %9s %7s %10s %11s %6s\n",
		"APP", "EV/S", "EVENTS", "DROPS", "DIRTY%", "POLLS", "ACTUATIONS", "ERR")
	for _, rec := range cur.Apps {
		c := rec.Counters
		evs := counterDelta(prevApps[rec.App], c, "ingest_events", dt) +
			counterDelta(prevApps[rec.App], c, "federation_events_in", dt)
		dirty := "-"
		if total := c["groups_total"]; total > 0 {
			dirty = fmt.Sprintf("%.1f", 100*float64(c["groups_dirty"])/float64(total))
		}
		fmt.Fprintf(&b, "%-18s %9.0f %12d %9d %7s %10d %11d %6d\n",
			rec.App, evs, c["ingest_events"]+c["federation_events_in"],
			dropsOf(c), dirty, c["periodic_polls"], c["actuations"], c["errors"])
	}

	if len(cur.Peers) > 0 {
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-18s %-12s %14s %14s\n", "PEER", "HEALTH", "SENT(B)", "RECV(B)")
		for _, p := range cur.Peers {
			fmt.Fprintf(&b, "%-18s %-12s %14d %14d\n", p.Name, p.Health, p.BytesSent, p.BytesRecv)
		}
	}

	if len(cur.Budgets) > 0 {
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-18s %9s %9s %12s %12s\n", "BUDGET", "CAP", "INFLIGHT", "ADMITTED", "REJECTED")
		for _, bd := range cur.Budgets {
			capStr := "∞"
			if bd.Capacity > 0 {
				capStr = fmt.Sprintf("%d", bd.Capacity)
			}
			fmt.Fprintf(&b, "%-18s %9s %9d %12d %12d\n", bd.App, capStr, bd.InFlight, bd.Admitted, bd.Rejected)
		}
	}

	if len(cur.Registry) > 0 {
		parts := make([]string, 0, len(cur.Registry))
		for _, kc := range cur.Registry {
			if kc.Mirrors > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d(%d mirrored)", kc.Kind, kc.Count, kc.Mirrors))
			} else {
				parts = append(parts, fmt.Sprintf("%s=%d", kc.Kind, kc.Count))
			}
		}
		fmt.Fprintf(&b, "\nregistry: %s\n", strings.Join(parts, "  "))
	}

	hc := cur.Host.Counters
	names := make([]string, 0, len(hc))
	for name := range hc {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, hc[name]))
	}
	fmt.Fprintf(&b, "host: %s\n", strings.Join(parts, " "))
	return b.String()
}

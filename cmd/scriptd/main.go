// Command scriptd serves a script over TCP: it builds one of the named
// pattern definitions (internal/patterns), wraps it in a remote.Host, and
// accepts remote.Enroller connections until interrupted. Each enrolling
// process supplies its own role body; scriptd only runs the shared
// performance machinery — scheduling, rendezvous, abort, drain.
//
// Usage:
//
//	scriptd -script star_broadcast -n 3 [-addr 127.0.0.1:0] [-deadline 5s]
//	scriptd -list
//
// The resolved listen address is printed to stdout as "listening on ADDR"
// so callers binding port 0 can scrape it. SIGINT/SIGTERM triggers a
// graceful drain: in-flight performances finish, new offers are rejected
// with ErrDraining, then the process exits.
//
// Admission control: -max-conns, -max-enrollments, and -max-pending-offers
// cap the host's concurrent connections, admitted enrollments, and pending
// offer backlog; work over a cap is shed fast with ErrOverloaded carrying
// the -retry-after backoff hint, and in-flight performances are never
// aborted by shedding.
//
// Observability: -metrics-addr starts an HTTP listener exposing the
// process's always-on counters (performances, sheds, lane hits, wire
// versions, trace drops) in Prometheus text format at /metrics, plus the
// host's live gauges and Go's expvar at /debug/vars, and Go's profiles at
// /debug/pprof/ (the daemon has no other HTTP listener, so without the flag
// there is nothing to profile through). The resolved address
// is printed as "metrics on ADDR". -trace-sample enables sampled tracing of
// the served performances; the last traceTail events recorded are served as
// JSON (the form cmd/tracecheck reads) at /debug/trace.
//
// Fleet: -registry joins a cluster registry and announces this host (its
// serve address, script name, and a live load digest refreshed every
// announcement). "gossip:BIND" starts a UDP gossip node on BIND seeded from
// -gossip-peers and prints the resolved address as "gossip on ADDR";
// "static:FILE" re-reads a member file. -announce overrides the announced
// serve address (for NAT or 0.0.0.0 binds). A signal-triggered drain
// withdraws the announcement first, so clients stop routing here while
// in-flight performances finish.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/scriptabs/goscript/internal/core"
	"github.com/scriptabs/goscript/internal/metrics"
	"github.com/scriptabs/goscript/internal/patterns"
	"github.com/scriptabs/goscript/internal/registry"
	"github.com/scriptabs/goscript/internal/remote"
	"github.com/scriptabs/goscript/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scriptd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "TCP address to listen on (port 0 picks a free port)")
	script := fs.String("script", "star_broadcast", "pattern definition to serve (see -list)")
	n := fs.Int("n", 3, "pattern size parameter (recipients, parties, capacity, ...)")
	deadline := fs.Duration("deadline", 0, "per-performance deadline (0 disables)")
	hbTimeout := fs.Duration("heartbeat-timeout", remote.DefaultHeartbeatTimeout,
		"abort a performance whose enroller has been silent this long")
	resumeWindow := fs.Duration("resume-window", 0,
		"park a v2 conversation this long after a connection loss, awaiting RESUME (0 disables session resumption)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a signal-triggered drain may take")
	maxConns := fs.Int("max-conns", 0, "cap on concurrently-served connections (0 = unlimited)")
	maxEnrollments := fs.Int("max-enrollments", 0, "cap on concurrently-admitted enrollments (0 = unlimited)")
	maxPending := fs.Int("max-pending-offers", 0, "cap on pending (unmatched) offers (0 = unlimited)")
	retryAfter := fs.Duration("retry-after", remote.DefaultRetryAfter,
		"backoff hint carried by overload rejections (negative disables the hint)")
	maxProto := fs.Int("max-proto", 0,
		"highest SCRW protocol version to negotiate (0 = newest; 1 pins the JSON v1 wire)")
	metricsAddr := fs.String("metrics-addr", "",
		"TCP address for the /metrics, /debug/vars, /debug/pprof/ and /debug/trace HTTP endpoint (empty disables; port 0 picks a free port)")
	sampleFrac := fs.Float64("trace-sample", 0,
		"fraction of performances to trace, 0..1 (0 disables sampled tracing)")
	sampleSeed := fs.Uint64("trace-seed", 1, "seed for the deterministic trace sampler")
	registrySpec := fs.String("registry", "",
		`cluster registry to join: "gossip:BIND-ADDR" (UDP gossip node) or "static:FILE" (member file, re-read periodically); empty disables`)
	announceAddr := fs.String("announce", "",
		"address to announce to the registry (default: the resolved listen address)")
	gossipPeers := fs.String("gossip-peers", "",
		"comma-separated seed gossip addresses of other hosts (with -registry gossip:...)")
	gossipInterval := fs.Duration("gossip-interval", 500*time.Millisecond,
		"gossip round cadence; membership eviction takes 10 rounds of silence")
	gossipSecret := fs.String("gossip-secret", "",
		"shared secret authenticating gossip datagrams (HMAC-SHA256); empty trusts the network — required beyond loopback")
	list := fs.Bool("list", false, "print the servable script names and exit")
	verbose := fs.Bool("v", false, "log connection-level events to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, name := range patterns.Names() {
			fmt.Fprintln(out, name)
		}
		return nil
	}

	def, err := patterns.ByName(*script, *n)
	if err != nil {
		return err
	}
	var opts []core.Option
	if *deadline > 0 {
		opts = append(opts, core.WithPerformanceDeadline(*deadline))
	}
	var tail *trace.Tail
	if *sampleFrac > 0 {
		// Sampled tracing: events of sampled performances land, through an
		// async tracer whose drops the metrics registry counts, in a bounded
		// tail that /debug/trace reads.
		tail = trace.NewTail(traceTail)
		asyncTracer := trace.NewAsync(tail, 0)
		defer asyncTracer.Close()
		opts = append(opts,
			core.WithTracer(asyncTracer),
			core.WithSampler(trace.NewProbabilitySampler(*sampleFrac, *sampleSeed)))
	}
	in := core.NewInstance(def, opts...)

	cfg := remote.HostConfig{
		HeartbeatTimeout: *hbTimeout,
		ResumeWindow:     *resumeWindow,
		MaxConns:         *maxConns,
		MaxEnrollments:   *maxEnrollments,
		MaxPendingOffers: *maxPending,
		RetryAfter:       *retryAfter,
	}
	cfg.MaxProtocolVersion = *maxProto
	if *verbose {
		cfg.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "scriptd: "+format+"\n", a...)
		}
	}
	h := remote.NewHost(in, cfg)
	if err := h.Listen(*addr); err != nil {
		return err
	}
	fmt.Fprintf(out, "serving %q (n=%d)\n", def.Name(), *n)
	fmt.Fprintf(out, "listening on %s\n", h.Addr())

	var reg registry.Registry
	var stopAnnounce func()
	if *registrySpec != "" {
		switch {
		case strings.HasPrefix(*registrySpec, "gossip:"):
			gcfg := registry.GossipConfig{
				Bind:     strings.TrimPrefix(*registrySpec, "gossip:"),
				Interval: *gossipInterval,
			}
			if *gossipPeers != "" {
				gcfg.Seeds = strings.Split(*gossipPeers, ",")
			}
			if *gossipSecret != "" {
				gcfg.Secret = []byte(*gossipSecret)
			}
			if *verbose {
				gcfg.Logf = func(format string, a ...any) {
					fmt.Fprintf(os.Stderr, "scriptd: "+format+"\n", a...)
				}
			}
			g, err := registry.NewGossip(gcfg)
			if err != nil {
				return err
			}
			reg = g
			fmt.Fprintf(out, "gossip on %s\n", g.Addr())
		case strings.HasPrefix(*registrySpec, "static:"):
			s, err := registry.NewStaticFile(strings.TrimPrefix(*registrySpec, "static:"), 2*time.Second)
			if err != nil {
				return err
			}
			reg = s
		default:
			return fmt.Errorf(`unknown -registry %q (want "gossip:BIND-ADDR" or "static:FILE")`, *registrySpec)
		}
		defer reg.Close()
		ann := *announceAddr
		if ann == "" {
			ann = h.Addr().String()
		}
		var prevShed atomic.Uint64
		stopAnnounce = reg.Announce(
			registry.Endpoint{Addr: ann, Scripts: []string{def.Name()}},
			func() registry.Load {
				st := h.Stats()
				shed := uint64(st.ShedEnrollments)
				return registry.Load{
					Conns:         st.Conns,
					Enrolling:     st.Enrolling,
					PendingOffers: in.PendingOffers(),
					ShedRecent:    shed - prevShed.Swap(shed),
				}
			})
		fmt.Fprintf(out, "announcing %s\n", ann)
	}

	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer mln.Close()
		srv := &http.Server{Handler: metricsMux(h, in, reg, def.Name(), tail)}
		go func() { _ = srv.Serve(mln) }()
		defer srv.Close()
		fmt.Fprintf(out, "metrics on %s\n", mln.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- h.Serve() }()

	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(out, "%s: draining\n", sig)
		if stopAnnounce != nil {
			// Leave the registry first: clients stop routing new offers
			// here while the drain lets in-flight performances finish.
			stopAnnounce()
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := h.Drain(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		<-errCh // Serve returns nil once the listener closes
		fmt.Fprintln(out, "drained")
		return nil
	}
}

// traceTail is how many of the most recent trace events a daemon started
// with -trace-sample keeps for /debug/trace: about a megabyte, whatever the
// traffic and however long the daemon lives.
const traceTail = 4096

// metricsMux builds the observability endpoint: /metrics serves the
// process-wide counter registry plus the host's live gauges in Prometheus
// text format, /debug/vars serves Go's expvar JSON, /debug/pprof/ what
// net/http/pprof serves (on this mux only: the package's own registration is
// with the default mux, which the daemon never serves), and /debug/trace the
// tail of sampled trace events as trace.WriteJSON writes them (404 when the
// daemon samples nothing).
func metricsMux(h *remote.Host, in *core.Instance, reg registry.Registry, script string, tail *trace.Tail) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = metrics.Default.WritePrometheus(w)
		st := h.Stats()
		gauges := []struct {
			name string
			val  int64
		}{
			{"scriptd_host_conns", int64(st.Conns)},
			{"scriptd_host_enrolling", int64(st.Enrolling)},
			{"scriptd_host_active_streams", int64(st.ActiveStreams)},
			{"scriptd_host_shed_conns_total", int64(st.ShedConns)},
			{"scriptd_host_shed_enrollments_total", int64(st.ShedEnrollments)},
			{"scriptd_host_conns_v1_total", int64(st.ConnsV1)},
			{"scriptd_host_conns_v2_total", int64(st.ConnsV2)},
			{"scriptd_instance_performances", int64(in.Performances())},
			{"scriptd_instance_pending_offers", int64(in.PendingOffers())},
			{"scriptd_instance_live_traces", int64(len(in.TraceContexts()))},
		}
		if reg != nil {
			gauges = append(gauges, struct {
				name string
				val  int64
			}{"scriptd_registry_members", int64(len(reg.Snapshot(script)))})
		}
		for _, g := range gauges {
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.name, g.name, g.val)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index) // the named profiles too: heap, goroutine, ...
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if tail != nil {
		mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = trace.WriteJSON(w, tail.Events()) // the client went away: nothing to tell it
		})
	}
	return mux
}

package scfs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// debugServer is the HTTP introspection endpoint started by
// WithDebugServer. It serves the mount's metrics (Prometheus text and
// JSON), its retained operation traces, and the standard pprof profiles. The
// handlers are read-only: they snapshot, they never mutate mount state.
type debugServer struct {
	addr string
	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

// startDebugServer binds addr (":0" picks an ephemeral port) and serves
// until shutdown.
func startDebugServer(addr string, m *FS) (*debugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("scfs: debug server listen %q: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "scfs debug server")
		fmt.Fprintln(w, "  /metrics       Prometheus text exposition")
		fmt.Fprintln(w, "  /debug/stats   mount stats as JSON (counters, telemetry, spend)")
		fmt.Fprintln(w, "  /debug/traces  recent operation traces (?n=32)")
		fmt.Fprintln(w, "  /debug/slow    slowest retained traces per operation class")
		fmt.Fprintln(w, "  /debug/flight  trace retention stats, flagged and slowest traces per class")
		fmt.Fprintln(w, "  /debug/pprof/  runtime profiles")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.metrics.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.Stats())
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		n := 32
		if q := r.URL.Query().Get("n"); q != "" {
			if _, err := fmt.Sscanf(q, "%d", &n); err != nil {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, t := range m.tracer.Recent(n) {
			writeTrace(w, t)
		}
	})
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, class := range m.tracer.Classes() {
			writeClass(w, class, "slowest first", m.tracer.Slowest(class))
		}
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st := m.tracer.Stats()
		fmt.Fprintf(w, "seen=%d admitted=%d evicted=%d retained=%d spans=%d/%d\n",
			st.Seen, st.Admitted, st.Evicted, st.Retained, st.Spans, st.SpanBudget)
		for _, class := range m.tracer.Classes() {
			writeClass(w, class, "flagged, newest first", m.tracer.Flagged(class))
			writeClass(w, class, "slowest first", m.tracer.Slowest(class))
		}
	})
	// Explicit pprof routes: the mount must not depend on (or pollute)
	// http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", func(w http.ResponseWriter, r *http.Request) {
		switch strings.TrimPrefix(r.URL.Path, "/debug/pprof/") {
		case "cmdline":
			pprof.Cmdline(w, r)
		case "profile":
			pprof.Profile(w, r)
		case "symbol":
			pprof.Symbol(w, r)
		case "trace":
			pprof.Trace(w, r)
		default:
			pprof.Index(w, r)
		}
	})

	d := &debugServer{
		addr: ln.Addr().String(),
		ln:   ln,
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		_ = d.srv.Serve(ln)
	}()
	return d, nil
}

// writeClass renders one op class's retained traces under a heading;
// an empty list renders nothing.
func writeClass(w io.Writer, class, order string, traces []*Trace) {
	if len(traces) == 0 {
		return
	}
	fmt.Fprintf(w, "== %s (%s)\n", class, order)
	for _, t := range traces {
		writeTrace(w, t)
	}
}

// writeTrace renders one trace: a header line with its ID, op, unit,
// duration, verdict latency, error and dropped-span count, then one
// indented line per span.
func writeTrace(w io.Writer, t *Trace) {
	verdict := ""
	if v := t.VerdictLatency(); v > 0 {
		verdict = fmt.Sprintf(" verdict=%s", v)
	}
	suffix := ""
	if err := t.Err(); err != nil {
		suffix += " err=" + err.Error()
	}
	if n := t.Dropped(); n > 0 {
		suffix += fmt.Sprintf(" dropped=%d", n)
	}
	fmt.Fprintf(w, "%s %s %s dur=%s%s%s\n", t.ID, t.Op, t.Unit, t.Duration(), verdict, suffix)
	for _, line := range t.Describe() {
		fmt.Fprintf(w, "  %s\n", line)
	}
}

// shutdown stops the server, waiting for in-flight requests until ctx is
// done (then closing them forcefully). Safe to call more than once.
func (d *debugServer) shutdown(ctx context.Context) {
	if err := d.srv.Shutdown(ctx); err != nil {
		_ = d.srv.Close()
	}
	<-d.done
}

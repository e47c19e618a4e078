package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"pathtrace/internal/metrics"
)

// adminServer is the sidecar HTTP listener: liveness, the Prometheus
// exposition (the one place server state is read from) and the
// admission limits, kept off the data-plane port so operational probes
// never compete with prediction traffic for the protocol decoder.
type adminServer struct {
	ln  net.Listener
	srv *http.Server
}

func newAdminServer(addr string, s *Server) (*adminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: admin listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", metrics.ContentType)
		s.reg.Render(w)
	})
	mux.HandleFunc("/limitz", func(w http.ResponseWriter, r *http.Request) {
		// GET reads the active admission limits; POST installs new ones
		// atomically (the hot-reload path — no session or connection is
		// disturbed). The reply is always the now-active limits.
		if r.Method == http.MethodPost {
			l, err := DecodeLimits(http.MaxBytesReader(w, r.Body, 1<<16))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			s.SetLimits(l)
		} else if r.Method != http.MethodGet {
			http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Limits())
	})
	// The admin plane is an operational surface exposed beyond localhost
	// in real fleets: without read/idle timeouts a single peer that
	// dribbles header bytes (slowloris) pins a connection and its
	// goroutine forever. Every endpoint answers from memory, so tight
	// bounds cost nothing.
	a := &adminServer{ln: ln, srv: &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}}
	go a.srv.Serve(ln)
	return a, nil
}

func (a *adminServer) close() {
	a.srv.Close()
	a.ln.Close()
}

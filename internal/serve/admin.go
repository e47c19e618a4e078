package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"pathtrace/internal/metrics"
	"pathtrace/internal/predictor"
)

// adminServer is the sidecar HTTP listener: liveness, JSON stats,
// expvar-style counters and the Prometheus exposition, kept off the
// data-plane port so operational probes never compete with prediction
// traffic for the protocol decoder.
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
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Stats())
	})
	mux.HandleFunc("/varz", func(w http.ResponseWriter, r *http.Request) {
		// expvar-style flat counter map, one JSON object of numbers.
		st := s.Stats()
		vars := map[string]any{
			"uptime_sec":     st.UptimeSec,
			"conns.accepted": st.Conns.Accepted,
			"conns.active":   st.Conns.Active,
			"requests":       st.Requests,
			"bad_frames":     st.BadFrames,
			"drain_rejects":  st.DrainRejects,
			"throttled":      st.Throttled,
			"client_tags":    len(st.Clients),
			"batches":        st.Batches,
			"traces":         st.Traces,
			"overloads":      st.Overloads,
			"sessions":       st.Sessions,
			"predictions":    st.Predictor.Predictions,
			"mispredictions": st.Predictor.Mispredictions(),
			"miss_rate_pct":  st.MissRatePct,
			"draining":       st.Draining,
		}
		for _, sh := range st.Shard {
			prefix := fmt.Sprintf("shard.%d.", sh.ID)
			vars[prefix+"requests"] = sh.Requests
			vars[prefix+"batches"] = sh.Batches
			vars[prefix+"traces"] = sh.Traces
			vars[prefix+"queue_depth"] = sh.QueueDepth
			vars[prefix+"overloads"] = sh.Overloads
			vars[prefix+"sessions"] = sh.Sessions
			vars[prefix+"miss_rate_pct"] = sh.MissRatePct
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(vars)
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
			var l Limits
			dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&l); err != nil {
				http.Error(w, fmt.Sprintf("bad limits: %v", err), http.StatusBadRequest)
				return
			}
			if l.PerClientRate < 0 || l.PerClientBurst < 0 || l.GlobalRate < 0 || l.GlobalBurst < 0 {
				http.Error(w, "bad limits: rates and bursts must be >= 0", http.StatusBadRequest)
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

// ShardStats is one shard's externally visible state.
type ShardStats struct {
	ID          int             `json:"id"`
	Sessions    int             `json:"sessions"`
	Requests    uint64          `json:"requests"`
	Batches     uint64          `json:"batches"`
	Traces      uint64          `json:"traces"`
	QueueDepth  int             `json:"queue_depth"` // requests waiting on the shard
	QueueCap    int             `json:"queue_cap"`   // the bound on them (Config.QueueLen)
	Overloads   uint64          `json:"overloads"`
	Predictor   predictor.Stats `json:"predictor"`
	MissRatePct float64         `json:"miss_rate_pct"`
}

// ServerStats is the /statsz document: server-wide counters plus one
// entry per shard.
type ServerStats struct {
	Addr      string   `json:"addr"`
	UptimeSec float64  `json:"uptime_sec"`
	Draining  bool     `json:"draining"`
	Shards    int      `json:"shards"`
	Backend   string   `json:"backend"`
	Shadows   []string `json:"shadows,omitempty"`

	Conns struct {
		Accepted uint64 `json:"accepted"`
		Active   int64  `json:"active"`
	} `json:"conns"`
	Requests     uint64 `json:"requests"`
	BadFrames    uint64 `json:"bad_frames"`
	DrainRejects uint64 `json:"drain_rejects"`
	Throttled    uint64 `json:"throttled"`

	Batches   uint64 `json:"batches"`
	Traces    uint64 `json:"traces"`
	Overloads uint64 `json:"overloads"`
	Sessions  int    `json:"sessions"`

	// Admission control: the active limits and per-client accounting.
	Limits  Limits        `json:"limits"`
	Clients []ClientStats `json:"clients,omitempty"`

	Predictor   predictor.Stats `json:"predictor"`
	MissRatePct float64         `json:"miss_rate_pct"`

	Shard []ShardStats `json:"shard"`
}

// Stats snapshots the server: connection and frame counters, per-shard
// load, and aggregated predictor accuracy. Predictor numbers come from
// each shard's published snapshot, so this never waits on a shard.
func (s *Server) Stats() ServerStats {
	var st ServerStats
	st.Addr = s.ln.Addr().String()
	st.UptimeSec = time.Since(s.start).Seconds()
	st.Draining = s.draining.Load()
	st.Shards = len(s.shards)
	st.Backend = s.backend.Name
	st.Shadows = s.cfg.Shadows
	st.Conns.Accepted = s.counters.Accepted.Load()
	st.Conns.Active = s.counters.Active.Load()
	st.Requests = s.counters.Requests.Load()
	st.BadFrames = s.counters.BadFrames.Load()
	st.DrainRejects = s.counters.DrainRejects.Load()
	st.Throttled = s.counters.Throttled.Load()
	st.Limits = s.Limits()
	st.Clients = s.clients.stats()

	for _, sh := range s.shards {
		agg, sessions := sh.snapshot()
		ss := ShardStats{
			ID:          sh.id,
			Sessions:    sessions,
			Requests:    sh.counters.Requests.Load(),
			Batches:     sh.counters.Batches.Load(),
			Traces:      sh.counters.Traces.Load(),
			QueueDepth:  int(sh.waiting.Load()),
			QueueCap:    int(sh.queueLen),
			Overloads:   sh.counters.Overloads.Load(),
			Predictor:   agg,
			MissRatePct: agg.MissRate(),
		}
		st.Batches += ss.Batches
		st.Traces += ss.Traces
		st.Overloads += ss.Overloads
		st.Sessions += ss.Sessions
		st.Predictor = st.Predictor.Add(agg)
		st.Shard = append(st.Shard, ss)
	}
	st.MissRatePct = st.Predictor.MissRate()
	return st
}

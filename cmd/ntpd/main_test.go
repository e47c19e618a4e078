package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathtrace/internal/serve"
)

// TestLimitsFileAndLimitzAgree feeds the same documents to both ways
// admission limits reach a running server, the -limits-file loader
// (startup and SIGHUP) and POST /limitz, and requires the same verdict
// from each. A rejected POST must leave the active limits unchanged;
// an accepted one installs exactly what the file path decodes.
func TestLimitsFileAndLimitzAgree(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{
		Addr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0", Shards: 1,
		Limits: serve.Limits{PerClientRate: 100, PerClientBurst: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	limitz := "http://" + srv.AdminAddr().String() + "/limitz"

	for _, tc := range []struct {
		name string
		doc  string
		ok   bool
	}{
		{"unknown key", `{"per_client_rat": 5}`, false},
		{"valid", `{"per_client_rate": 7000, "per_client_burst": 700, "global_rate": 50000, "global_burst": 5000}`, true},
		{"negative rate", `{"global_rate": -1}`, false},
		{"negative burst", `{"per_client_rate": 5, "per_client_burst": -2}`, false},
	} {
		path := filepath.Join(t.TempDir(), "limits.json")
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, fileErr := loadLimits(path)
		if (fileErr == nil) != tc.ok {
			t.Errorf("%s: -limits-file err = %v, want ok=%v", tc.name, fileErr, tc.ok)
		}

		before := srv.Limits()
		resp, err := http.Post(limitz, "application/json", strings.NewReader(tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if (resp.StatusCode == http.StatusOK) != tc.ok {
			t.Errorf("%s: POST /limitz = %d %q, want ok=%v", tc.name, resp.StatusCode, body, tc.ok)
		}
		want := before
		if tc.ok {
			want = fromFile
		}
		if got := srv.Limits(); got != want {
			t.Errorf("%s: active limits after POST = %+v, want %+v", tc.name, got, want)
		}
	}
}

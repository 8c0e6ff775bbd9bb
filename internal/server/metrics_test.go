package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
)

// metricSeries lists the series a registry exposes as "type name", label
// set included. A histogram is listed once, by its own name, not by its
// _bucket/_sum/_count lines.
func metricSeries(t *testing.T, s *Server) []string {
	t.Helper()
	var b strings.Builder
	if err := s.Registry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	types := make(map[string]string)
	var out []string
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if fam, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(fam, " ")
			types[name] = typ
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		name, labels, _ := strings.Cut(series, "{")
		if typ, ok := types[name]; ok {
			out = append(out, typ+" "+series)
			continue
		}
		// A histogram's lines carry a suffix on the family name; its
		// _count line stands for the whole histogram.
		if fam, ok := strings.CutSuffix(name, "_count"); ok && types[fam] == "histogram" {
			if labels != "" {
				fam += "{" + labels
			}
			out = append(out, "histogram "+fam)
		}
	}
	return out
}

// singleNodeSeries is what a fresh store-backed node exposes before its
// first request.
var singleNodeSeries = []string{
	"counter sperrd_cache_declined_total",
	"counter sperrd_cache_evictions_total",
	"counter sperrd_cache_hits_total",
	"counter sperrd_cache_misses_total",
	"counter sperrd_requests_canceled_total",
	"counter sperrd_store_chunk_decodes_total",
	"counter sperrd_store_deletes_total",
	"counter sperrd_store_ingest_rejected_total",
	"counter sperrd_store_ingests_total",
	"gauge sperrd_admission_inuse_samples",
	"gauge sperrd_admission_peak_samples",
	"gauge sperrd_admission_queue_depth",
	"gauge sperrd_cache_peak_samples",
	"gauge sperrd_cache_resident_samples",
	"gauge sperrd_requests_inflight",
	"histogram sperrd_queue_wait_seconds",
	`histogram sperrd_request_seconds{endpoint="compress"}`,
	`histogram sperrd_request_seconds{endpoint="decompress"}`,
	`histogram sperrd_request_seconds{endpoint="describe"}`,
	`histogram sperrd_request_seconds{endpoint="ingest"}`,
	`histogram sperrd_request_seconds{endpoint="region"}`,
	`histogram sperrd_request_seconds{endpoint="region_cached"}`,
	`histogram sperrd_request_seconds{endpoint="volume"}`,
	`histogram sperrd_request_seconds{endpoint="volume_delete"}`,
	"histogram sperrd_store_ingest_bytes",
}

// clusterNodeSeries is what a fresh cluster node adds to a single node's
// series. The per-peer request series are not among them: each appears at
// its first event.
var clusterNodeSeries = []string{
	"counter sperrd_cluster_breaker_opens_total",
	"counter sperrd_cluster_degraded_total",
	"counter sperrd_cluster_filled_chunks_total",
	"counter sperrd_replica_failover_chunks_total",
	"counter sperrd_scrub_damaged_chunks_total",
	"counter sperrd_scrub_repaired_chunks_total",
	"counter sperrd_scrub_runs_total",
	`histogram sperrd_request_seconds{endpoint="peer_chunks"}`,
	`histogram sperrd_request_seconds{endpoint="peer_delete"}`,
	`histogram sperrd_request_seconds{endpoint="peer_ingest"}`,
	`histogram sperrd_request_seconds{endpoint="peer_manifest"}`,
	`histogram sperrd_request_seconds{endpoint="peer_repair"}`,
}

// TestMetricSeriesPinned: the series a fresh node exposes, label sets
// included, are fixed whichever package creates them. Dashboards and
// alerts address metrics by these names.
func TestMetricSeriesPinned(t *testing.T) {
	single, _ := newStoreServer(t, Config{})
	if got := metricSeries(t, single); !slices.Equal(got, singleNodeSeries) {
		t.Errorf("single node series:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(singleNodeSeries, "\n"))
	}

	cl, _ := newTestServer(t, Config{
		StoreDir:      t.TempDir(),
		NodeID:        "node-a",
		Peers:         []string{"node-a=http://127.0.0.1:1", "node-b=http://127.0.0.1:2"},
		ScrubInterval: -1, // a scrub pass would reach for node-b
	})
	want := slices.Concat(singleNodeSeries, clusterNodeSeries)
	slices.SortFunc(want, func(a, b string) int {
		// The exposition groups counters, then gauges, then histograms.
		rank := func(s string) int { return strings.Index("cgh", s[:1]) }
		if ra, rb := rank(a), rank(b); ra != rb {
			return ra - rb
		}
		return strings.Compare(a, b)
	})
	if got := metricSeries(t, cl); !slices.Equal(got, want) {
		t.Errorf("cluster node series:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// syncBuffer is a bytes.Buffer safe for the server's handler goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// lines returns the JSON lines written so far, decoded.
func (s *syncBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(s.b.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("access log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// TestAccessLog: with a log writer, each request writes one JSON line
// naming its endpoint and status, and a failed request carries its error.
func TestAccessLog(t *testing.T) {
	var log syncBuffer
	_, ts := newStoreServer(t, Config{LogWriter: &log})

	if res, body := do(t, "GET", ts.URL+"/v1/volumes/"+strings.Repeat("0", 64), nil); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown volume: status %d: %s", res.StatusCode, body)
	}
	lines := log.lines(t)
	if len(lines) != 1 {
		t.Fatalf("one request wrote %d log lines", len(lines))
	}
	l := lines[0]
	if l["msg"] != "request" || l["endpoint"] != "volume" || l["status"] != float64(http.StatusNotFound) ||
		l["level"] != "ERROR" || l["err"] == nil || l["err"] == "" {
		t.Fatalf("failed request logged %v; want endpoint volume, status 404, level ERROR and its err", l)
	}

	container := readFixture(t, goldenFixtures[1].path)
	ingest(t, ts, container, http.StatusCreated)
	lines = log.lines(t)
	if len(lines) != 2 {
		t.Fatalf("two requests wrote %d log lines", len(lines))
	}
	l = lines[1]
	if l["endpoint"] != "ingest" || l["status"] != float64(http.StatusCreated) || l["level"] != "INFO" {
		t.Fatalf("ingest logged %v; want endpoint ingest, status 201, level INFO", l)
	}
	if _, ok := l["err"]; ok {
		t.Fatalf("a successful request logged an err: %v", l)
	}
}

package svc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/netrun"
)

// httpDo is a tiny JSON client against the test server.
func httpDo(t *testing.T, method, url string, body interface{}, out interface{}) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPAPI drives the whole front door over real HTTP: submit, poll,
// result with checksums, list, statsz, cancel, and the error statuses.
func TestHTTPAPI(t *testing.T) {
	s := newTestService(t, 2, netrun.ServerOptions{}, Options{MaxQueue: 4})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if code := httpDo(t, "GET", ts.URL+"/healthz", nil, nil); code != 200 {
		t.Fatalf("healthz = %d", code)
	}

	// Bad submissions: malformed JSON and an empty program.
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed submit = %d, want 400", resp.StatusCode)
	}
	if code := httpDo(t, "POST", ts.URL+"/api/v1/jobs", JobSpec{}, nil); code != 400 {
		t.Errorf("empty-program submit = %d, want 400", code)
	}

	// A retired field is refused by name, not silently dropped.
	var bad struct {
		Error string `json:"error"`
	}
	if code := httpDo(t, "POST", ts.URL+"/api/v1/jobs", map[string]interface{}{"program": "x", "cores": 2}, &bad); code != 400 || !strings.Contains(bad.Error, `"cores"`) {
		t.Errorf(`submit with "cores" = %d (%q), want 400 naming the field`, code, bad.Error)
	}

	// A good submission round-trips through status to a verified result.
	spec := testSpec(t, "mm", 64, 0, 2)
	spec.Tenant = "alice"
	var sub struct {
		ID string `json:"id"`
	}
	if code := httpDo(t, "POST", ts.URL+"/api/v1/jobs", spec, &sub); code != 202 {
		t.Fatalf("submit = %d, want 202", code)
	}
	jobURL := ts.URL + "/api/v1/jobs/" + sub.ID

	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		if code := httpDo(t, "GET", jobURL, nil, &st); code != 200 {
			t.Fatalf("status = %d", code)
		}
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed || time.Now().After(deadline) {
			t.Fatalf("job ended in %s (%s)", st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var res JobResult
	if code := httpDo(t, "GET", jobURL+"/result", nil, &res); code != 200 {
		t.Fatalf("result = %d, want 200", code)
	}
	want := refSums(t, spec)
	if len(res.Arrays) == 0 {
		t.Fatal("result has no checksums")
	}
	for _, a := range res.Arrays {
		if w, ok := want[a.Name]; ok && a.SHA256 != w {
			t.Errorf("array %s checksum mismatch over HTTP", a.Name)
		}
	}

	// List and statsz reflect the run.
	var list []JobStatus
	if code := httpDo(t, "GET", ts.URL+"/api/v1/jobs", nil, &list); code != 200 || len(list) != 1 {
		t.Errorf("list = %d with %d jobs, want 200 with 1", code, len(list))
	}
	var z Statsz
	if code := httpDo(t, "GET", ts.URL+"/statsz", nil, &z); code != 200 {
		t.Fatalf("statsz = %d", code)
	}
	if z.Tenants["alice"] == nil || z.Tenants["alice"].Done != 1 {
		t.Errorf("statsz missing tenant alice done=1: %+v", z.Tenants)
	}
	if z.PoolSize != 2 || z.PoolFree != 2 {
		t.Errorf("statsz pool %d/%d, want 2 free of 2", z.PoolFree, z.PoolSize)
	}
	if z.CompileCacheMisses != 1 || z.CompileCacheHits != 0 {
		t.Errorf("statsz compile cache %d hits, %d misses; want the one program compiled once", z.CompileCacheHits, z.CompileCacheMisses)
	}

	// Unknown job: 404 everywhere; unfinished result: 409.
	if code := httpDo(t, "GET", ts.URL+"/api/v1/jobs/j-999999", nil, nil); code != 404 {
		t.Errorf("unknown status = %d, want 404", code)
	}
	if code := httpDo(t, "DELETE", ts.URL+"/api/v1/jobs/j-999999", nil, nil); code != 404 {
		t.Errorf("unknown cancel = %d, want 404", code)
	}
	if code := httpDo(t, "GET", jobURL+"/result", nil, nil); code != 200 {
		t.Errorf("finished result re-read = %d, want 200", code)
	}
}

// TestHTTPQueueFull checks the 429 + Retry-After admission answer.
func TestHTTPQueueFull(t *testing.T) {
	s := newTestService(t, 1, netrun.ServerOptions{Drag: 30}, Options{MaxQueue: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	spec := testSpec(t, "mm", 128, 0, 1)

	var first struct {
		ID string `json:"id"`
	}
	if code := httpDo(t, "POST", ts.URL+"/api/v1/jobs", spec, &first); code != 202 {
		t.Fatalf("submit = %d", code)
	}
	waitState(t, s, first.ID, 15*time.Second, StateRunning)
	if code := httpDo(t, "POST", ts.URL+"/api/v1/jobs", spec, nil); code != 202 {
		t.Fatalf("second submit = %d", code)
	}

	b, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// An unfinished job's result is a conflict.
	if code := httpDo(t, "GET", fmt.Sprintf("%s/api/v1/jobs/%s/result", ts.URL, first.ID), nil, nil); code != 409 {
		t.Errorf("running result = %d, want 409", code)
	}
}

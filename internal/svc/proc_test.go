package svc

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDlbsvcSmoke is the service acceptance harness (also the CI smoke
// job): a real dlbsvc process with a 4-daemon in-process pool takes three
// jobs over HTTP — two tenants, one resubmission that exercises the plan
// cache — and every result's checksums must match the sequential
// reference.
func TestDlbsvcSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness is not -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	bin := filepath.Join(t.TempDir(), "dlbsvc")
	build := exec.Command(goTool, "build", "-o", bin, "repro/cmd/dlbsvc")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dlbsvc: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-pool", "4", "-quiet")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		t.Fatalf("dlbsvc produced no startup line (err %v)", sc.Err())
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 3 || fields[0] != "dlbsvc" || fields[1] != "listening" {
		t.Fatalf("unexpected dlbsvc startup line %q", sc.Text())
	}
	base := "http://" + fields[2]
	go func() {
		for sc.Scan() {
		}
	}()

	mm := testSpec(t, "mm", 64, 0, 2)
	sor := testSpec(t, "sor", 64, 4, 2)
	jobs := []struct {
		spec   JobSpec
		tenant string
	}{
		{mm, "alice"},
		{sor, "bob"},
		{mm, "alice"}, // identical resubmission: plan cache
	}
	wants := []map[string]string{refSums(t, mm), refSums(t, sor), refSums(t, mm)}

	ids := make([]string, len(jobs))
	for i, j := range jobs {
		spec := j.spec
		spec.Tenant = j.tenant
		var sub struct {
			ID string `json:"id"`
		}
		if code := httpDo(t, "POST", base+"/api/v1/jobs", spec, &sub); code != 202 {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids[i] = sub.ID
	}

	deadline := time.Now().Add(120 * time.Second)
	for i, id := range ids {
		for {
			var st JobStatus
			if code := httpDo(t, "GET", fmt.Sprintf("%s/api/v1/jobs/%s", base, id), nil, &st); code != 200 {
				t.Fatalf("status %s = %d", id, code)
			}
			if st.State == StateDone {
				break
			}
			if st.State == StateFailed {
				t.Fatalf("job %s failed: %s", id, st.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, st.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
		var res JobResult
		if code := httpDo(t, "GET", fmt.Sprintf("%s/api/v1/jobs/%s/result", base, id), nil, &res); code != 200 {
			t.Fatalf("result %s = %d", id, code)
		}
		if len(res.Arrays) == 0 {
			t.Fatalf("job %s has no checksums", id)
		}
		for _, a := range res.Arrays {
			if w, ok := wants[i][a.Name]; ok && a.SHA256 != w {
				t.Errorf("job %s array %s checksum mismatch vs sequential reference", id, a.Name)
			}
		}
	}

	var z Statsz
	if code := httpDo(t, "GET", base+"/statsz", nil, &z); code != 200 {
		t.Fatalf("statsz = %d", code)
	}
	if z.Tenants["alice"] == nil || z.Tenants["alice"].Done != 2 || z.Tenants["bob"] == nil || z.Tenants["bob"].Done != 1 {
		t.Errorf("statsz tenants wrong: %+v", z.Tenants)
	}

	// SIGTERM drains cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("dlbsvc exited non-zero: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dlbsvc did not exit after SIGTERM")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("dlbsvc still serving after exit")
	}
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSpec() *benchSpec {
	s := &benchSpec{
		EndToEnd: []metricSpec{{Name: "wall_s", Unit: "s"}, {Name: "setup_s", Unit: "s"}},
		PerLayer: []metricSpec{{Name: "tcp.host_ns_per_pkt", Unit: "ns/pkt"}},
	}
	s.Workloads = append(s.Workloads, struct {
		Name string `json:"name"`
	}{Name: "bulk-varlink"})
	return s
}

func TestSpecCheck(t *testing.T) {
	s := testSpec()
	ok := map[string]metric{"wall_s": {1, "s"}, "setup_s": {0.5, "s"}}
	if err := s.check("bulk-varlink", false, ok); err != nil {
		t.Fatalf("complete metrics rejected: %v", err)
	}
	for _, tc := range []struct {
		name     string
		workload string
		traced   bool
		got      map[string]metric
		want     string
	}{
		{"missing metric", "bulk-varlink", false, map[string]metric{"wall_s": {1, "s"}}, `"setup_s" missing`},
		{"extra metric", "bulk-varlink", false, map[string]metric{"wall_s": {1, "s"}, "setup_s": {1, "s"}, "qps": {1, "1/s"}}, `"qps" is not listed`},
		{"unit mismatch", "bulk-varlink", false, map[string]metric{"wall_s": {1, "ms"}, "setup_s": {1, "s"}}, `unit "ms"`},
		{"missing workload", "serve-http", false, ok, `"serve-http" is not listed`},
		{"traced run checks per_layer", "bulk-varlink", true, ok, `"tcp.host_ns_per_pkt" missing`},
	} {
		err := s.check(tc.workload, tc.traced, tc.got)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %s", tc.name, err, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to what the command
// runs and reports: the same workloads, and exactly the metrics, with
// their units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range s.Workloads {
		listed = append(listed, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if strings.Join(listed, ",") != strings.Join(code, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", listed, code)
	}
	e2e := make(map[string]metric)
	for name, unit := range endToEndUnits {
		e2e[name] = metric{Unit: unit}
	}
	layers := make(map[string]metric)
	for _, d := range layerDefs() {
		if _, dup := layers[d.name]; dup {
			t.Errorf("layer metric %q defined twice", d.name)
		}
		layers[d.name] = metric{Unit: d.unit}
	}
	for _, w := range code {
		if err := s.check(w, false, e2e); err != nil {
			t.Error(err)
		}
		if err := s.check(w, true, layers); err != nil {
			t.Error(err)
		}
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestRunFailsLoudly(t *testing.T) {
	empty := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown workload", []string{"-root", "..", "-workload", "nope"}},
		{"no BENCHMARK.json", []string{"-root", empty, "-workload", "serve-http"}},
		{"bad trace flag", []string{"-root", "..", "-workload", "serve-http", "-trace", "2"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code == 0 {
			t.Errorf("%s: exit 0", tc.name)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed a result: %q", tc.name, stdout.String())
		}
	}
}

func TestRunRejectsWorkloadMissingFromSpec(t *testing.T) {
	dir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), `"name": "serve-http"`, `"name": "serve-grpc"`, 1)
	if edited == string(data) {
		t.Fatal("BENCHMARK.json does not name serve-http")
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", dir, "-workload", "bulk-varlink"}, &stdout, &stderr); code == 0 {
		t.Fatal("a BENCHMARK.json naming an unknown workload was accepted")
	}
	if !strings.Contains(stderr.String(), "serve-grpc") {
		t.Errorf("error does not name the workload: %s", stderr.String())
	}
}

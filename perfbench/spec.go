package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json this command checks itself
// against: the workloads it runs and the metrics each run must report.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// hasWorkload reports whether BENCHMARK.json lists the workload.
func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// check compares a run's metrics with the list BENCHMARK.json names
// for it (end_to_end untraced, per_layer traced). Every named metric
// must be present with its unit, and the run may report nothing the
// file does not name: a metric missing on either side is an error, so
// a stale BENCHMARK.json or a dropped metric can never pass silently.
func (s *benchSpec) check(workload string, traced bool, got map[string]metric) error {
	if !s.hasWorkload(workload) {
		return fmt.Errorf("workload %q is not listed in BENCHMARK.json", workload)
	}
	want, list := s.EndToEnd, "end_to_end"
	if traced {
		want, list = s.PerLayer, "per_layer"
	}
	var problems []string
	named := make(map[string]bool, len(want))
	for _, m := range want {
		named[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s metric %q missing from output", list, m.Name))
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s metric %q: unit %q, BENCHMARK.json says %q", list, m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !named[name] {
			problems = append(problems, fmt.Sprintf("metric %q is not listed in BENCHMARK.json %s", name, list))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("workload %s: %s", workload, strings.Join(problems, "; "))
	}
	return nil
}

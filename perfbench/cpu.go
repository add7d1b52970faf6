package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuShares splits the flat CPU time of a profile by module, using the
// installed `go tool pprof -top`. Each function's flat time goes to
// the module of its package (see moduleOf); the shares sum to 1.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-flat", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat, err := parsePprofTop(out)
	if err != nil {
		return nil, err
	}
	total := 0.0
	byMod := make(map[string]float64)
	for fn, v := range flat {
		byMod[moduleOf(fn)] += v
		total += v
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares[m] = ratio(byMod[m], total)
	}
	return shares, nil
}

// parsePprofTop reads the rows of `pprof -top -unit=ms` output
//
//	flat  flat%   sum%        cum   cum%
//	120ms 10.00% 10.00%     200ms 16.67%  multinet/internal/tcp.(*Conn).pipe
//
// and returns the flat milliseconds per function.
func parsePprofTop(out []byte) (map[string]float64, error) {
	flat := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !header {
			header = len(fields) == 5 && fields[0] == "flat" && fields[4] == "cum%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		flat[strings.Join(fields[5:], " ")] += v
	}
	if !header {
		return nil, fmt.Errorf("pprof -top output has no header row:\n%s", out)
	}
	return flat, sc.Err()
}

// moduleOf maps a profiled function name to a cpuModules group: the
// repository's internal packages by their top-level name (other
// internal packages as "other"), the Go runtime, the rest of the
// standard library, and this benchmark's own code.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // generic instantiation: type arguments hold dots and slashes
	}
	slash := strings.LastIndexByte(pkg, '/')
	if i := strings.IndexByte(pkg[slash+1:], '.'); i >= 0 {
		pkg = pkg[:slash+1+i]
	}
	switch {
	case pkg == "main":
		return "perfbench"
	case strings.HasPrefix(pkg, "multinet/internal/"):
		mod, _, _ := strings.Cut(strings.TrimPrefix(pkg, "multinet/internal/"), "/")
		for _, m := range cpuModules {
			if m == mod {
				return m
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go_runtime"
	case strings.Contains(pkg, "."):
		return "other" // a module outside the standard library
	default:
		return "stdlib"
	}
}

package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"multinet/internal/experiments" // importing registers every harness
	"multinet/internal/experiments/engine"
)

// quickGolden is the benchmark's own copy of the SHA-256 table in the
// experiments package's TestQuickOutputGolden: each experiment's
// Quick() output at engine.DefaultSeed. report-quick checks every pass
// against it at the default seed.
var quickGolden = map[string]string{
	"table1":              "da7ec171726744f9d7456421d6745e4938c3192403275c8ed89cd4aeb4699f62",
	"figure3":             "22446a640e675c83d4c9eec1f5e4ff2607bab2b4e029ccc1e193a268d753b0da",
	"figure4":             "1c11d072532616180c3c921182f7852015e7bd4cd41f23c2221669b045535489",
	"table2":              "04440cf4b58a539247910cd0ae4189985932c0941133169b5f5868839f9d7f1d",
	"figure6":             "dcb9df2bf0fb9db5ec36c6a44e83eaaf6b065d51f437631f9dd27881319184ab",
	"figure7":             "51c41c3740e44a1f1ca1b971759b3c945b46f65320fd5407f1dd9833946d2241",
	"figure8":             "3e5612b3fa567329c8af908fb79c3ab6d03b7bdf735a3d07139b5bbf51cb2f54",
	"figure9":             "11320924064f837b8d914e064a41c7e913600c716039b8642711be8c503ac418",
	"figure10":            "4fbbbaecb892aa3bfcc71bdb4a7b6f61b850de81f490b6514156c5076b168cfd",
	"figure11":            "486f44f39a0cd8f19c6b46610a168d1a62cc4f8895467fe086f851cd00eb5922",
	"figure12":            "3de96e1a4071f9f653d8ad57e7c139c6b9177ff708ca162f0798c17921a2d44d",
	"coupling":            "f2e12fbd77bf0b66f9598b5693e27f919ad051164be1a5742e2ba714b7409628",
	"figure15":            "f34518970449a0d664030f68f52ee40bb70b1c9f208754ee0db781b3d662ef42",
	"figure16":            "b56630d3237317f0798c697f6a2dd0944842a57e75840fb32742d9c7c7f64cdf",
	"energy-backup":       "05196a2ce6b95ac196085390b950ea426c349abe50d5dee03c233265f96646bf",
	"figure17":            "99bab977b60daa79a0176a1a294e3024b2f70f2e48ea0a248df2f0f6020b0f0d",
	"figure18":            "8af855d73dd470b0f50843520db6cdca6c1b1643959fc1ba572bdf4e590dae34",
	"figure19":            "e0bf556880af6a613db05e6b285f8c645bd6ff0dff9ad8f9773d8ef10675f994",
	"figure20":            "e4e09ba0eb6ad2d5103f80566dbb171e07242bd11e8922cd2702a414d714cd45",
	"figure21":            "a6993ee639d4c8e8d4b24780bf627c0e04f5669dcc39855761f08dee42211fd1",
	"ablation-join":       "9d42f291ac71e129bad716445c1a2570194e0647ecfaa4f8ef3fdaccfeda2615",
	"ablation-scheduler":  "c82fa75f9c64cb2c2a494f48c82834396cb78b3bda852ca322d91bb0f538c599",
	"ablation-tail":       "e1addebdf5efc48ef158d2733689a9fd7c6beef2b12038c847a1bdd2948e6c95",
	"ablation-selector":   "482d15dd59d71fd9774ab254a563a39572d644656212a6ec652e7f3fe56afc3a",
	"scenario-dual-lte":   "3a094d0f5193541f4eab9e787e272b9a326deb60e57da7093ee66e77d4bcb5e0",
	"scenario-dual-wlan":  "03c0de5058b4a76c07f021c0bd878196a84f25df348bda564e345a600aaeb8b6",
	"scenario-wifi-2lte":  "5e28cd2f73eac00db28d45bedc82639c45a8c7309199e3bc9478a470f47bff6b",
	"scenario-schedulers": "67643cc4e6ea3321ba0fb504d5ee4630f4f82c67394273aea973639d4075a024",
	"scenario-faults":     "516a09839dd3aeb791eb245d9bc4f32c2d9e8a792cddbc9df8bf48e1cadc0183",
}

// setupProbes is how many times report-quick times process start-up
// before each pass. Spreading the probes over the run keeps one busy
// moment of the machine from setting the median.
const setupProbes = 8

// prepareQuick is report-quick's set-up after process start: the
// experiment list, which must be exactly the one the golden table
// names, and the options.
func prepareQuick(seed int64) ([]engine.Experiment, experiments.Options, error) {
	all := engine.All()
	if len(all) != len(quickGolden) {
		return nil, experiments.Options{}, fmt.Errorf("registry holds %d experiments, golden table %d", len(all), len(quickGolden))
	}
	for _, x := range all {
		if _, ok := quickGolden[x.Meta.Name]; !ok {
			return nil, experiments.Options{}, fmt.Errorf("no golden hash for experiment %q", x.Meta.Name)
		}
	}
	o := experiments.Quick()
	o.Seed = seed
	o.Workers = 1
	return all, o, nil
}

// runQuick runs every registered experiment at quick options on one
// sweep worker (cmd/report -quick -par 1), pass after pass, until
// e.seconds have elapsed (at least two passes, so repeated runs can be
// compared). An operation is one experiment: Run plus rendering its
// output; the run keeps each experiment's fastest time (see endToEnd).
func runQuick(e *env) (*phase, error) {
	all, o, err := prepareQuick(e.seed)
	if err != nil {
		return nil, err
	}
	p := &phase{layers: make(map[string]float64), best: make(fastest, len(all))}
	golden := o.BaseSeed() == engine.DefaultSeed
	spanNames := make([]string, len(all))
	for i, x := range all {
		spanNames[i] = "experiments.Run/" + x.Meta.Name
	}
	first := make([]string, len(all))
	perExp := make([][]float64, len(all))
	var allocMB []float64
	outs := make([]string, len(all))

	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start) < e.seconds; pass++ {
		if err := quickSetup(e, p); err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		if e.rec != nil {
			runtime.ReadMemStats(&m0)
		}
		ps := e.rec.begin("report.pass", 0, pass)
		for i, x := range all {
			id := e.rec.begin(spanNames[i], ps, pass)
			t := time.Now()
			outs[i] = x.Run(o).String()
			d := time.Since(t)
			e.rec.end(id)
			p.best.add(i, d)
			p.mem.sample()
			perExp[i] = append(perExp[i], d.Seconds())
		}
		e.rec.end(ps)
		if e.rec != nil {
			runtime.ReadMemStats(&m1)
			allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		}
		p.endPass(float64(len(all)))

		for i, x := range all {
			p.attempted++
			h := fmt.Sprintf("%x", sha256.Sum256([]byte(outs[i])))
			switch {
			case golden && h != quickGolden[x.Meta.Name]:
				p.fail("%s: output sha256 %s, golden %s", x.Meta.Name, h, quickGolden[x.Meta.Name])
			case pass == 0:
				first[i] = h
			case h != first[i]:
				p.fail("%s: pass %d output differs from pass 0 at seed %d", x.Meta.Name, pass, e.seed)
			}
		}
	}
	for i, x := range all {
		p.layers["experiments."+x.Meta.Name+".s"] = median(perExp[i])
	}
	if len(allocMB) > 0 {
		p.layers["experiments.alloc_mb"] = median(allocMB)
	}
	return p, nil
}

// quickSetup times process start-up to the first experiment
// setupProbes times into p.setup: it runs this binary in -probe-setup
// mode, which does everything a run does before its first experiment
// and then prints "ready", and times each start to that line.
func quickSetup(e *env, p *phase) error {
	if len(e.setupArgs) == 0 {
		return fmt.Errorf("report-quick: no set-up probe command")
	}
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(e.setupArgs)
		if err != nil {
			return fmt.Errorf("report-quick set-up probe: %w", err)
		}
		p.setup = append(p.setup, d)
	}
	return nil
}

func probeOnce(args []string) (time.Duration, error) {
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(t0)
	if werr := cmd.Wait(); werr != nil {
		return 0, werr
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("probe printed %q (%v), want \"ready\"", line, rerr)
	}
	return d, nil
}

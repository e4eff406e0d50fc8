package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// runAA is the A/A check: the whole suite n times in each of two sets of
// this same binary, interleaved A,B,B,A,…, run i of either set on seed
// seed+i. Per workload × end-to-end metric it prints each set's median,
// quartiles and sample count, the spread (interquartile range over median —
// what must stay within the metric's bound, and well inside it for the
// bound to mean anything) and whether the second set's median is worse than
// the first's by more than the bound. Its output fixed the bounds in
// BENCHMARK.json; the n=10 table is checked in as AA.md.
//
// Every run is a child process, so no run inherits another's heap.
func runAA(out io.Writer, n int, seed int64, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][set][metric] = samples
	values := make(map[string]*[2]map[string][]float64)
	for _, sp := range specs {
		values[sp.name] = &[2]map[string][]float64{{}, {}}
	}
	var failures []string
	for i := 0; i < n; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, set := range order {
			for _, sp := range specs {
				line, err := runChild(exe, sp.name, seed+int64(i), seconds)
				if err != nil {
					return fmt.Errorf("set %c run %d %s: %w", 'A'+set, i, sp.name, err)
				}
				if !line.Correct || line.Failed != 0 {
					failures = append(failures, fmt.Sprintf("set %c run %d %s: correct=%v, %d of %d ops failed",
						'A'+set, i+1, sp.name, line.Correct, line.Failed, line.Attempted))
				}
				for name, mv := range line.Metrics {
					values[sp.name][set][name] = append(values[sp.name][set][name], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: set %c run %d/%d %s done\n", 'A'+set, i+1, n, sp.name)
			}
		}
	}
	fmt.Fprintf(out, "| workload | metric | unit | set | n | median | Q1 | Q3 | spread | bound | verdict |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|---|---|\n")
	agree := true
	for _, sp := range specs {
		for _, d := range endToEnd {
			var med [2]float64
			for set := 0; set < 2; set++ {
				v := values[sp.name][set][d.Name]
				q1, q2, q3 := quartiles(v)
				med[set] = q2
				spread := (q3 - q1) / q2
				verdict := "spread ok"
				if d.Name != "setup_s" && spread > d.Bound {
					verdict, agree = "SPREAD OVER BOUND", false
				}
				if set == 1 {
					worse := med[1]/med[0] - 1
					if d.Better == "higher" {
						worse = 1 - med[1]/med[0]
					}
					if worse > d.Bound {
						verdict, agree = fmt.Sprintf("B WORSE BY %.1f%%", 100*worse), false
					} else {
						verdict += fmt.Sprintf(", B vs A %+.1f%%", 100*(med[1]/med[0]-1))
					}
				}
				fmt.Fprintf(out, "| %s | %s | %s | %c | %d | %.5g | %.5g | %.5g | %.1f%% | %.0f%% | %s |\n",
					sp.name, d.Name, d.Unit, 'A'+set, len(v), q2, q1, q3, 100*spread, 100*d.Bound, verdict)
			}
		}
	}
	for _, f := range failures {
		fmt.Fprintln(out, "\nFAILED:", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d runs had failed ops or wrong outputs", len(failures))
	}
	if !agree {
		return fmt.Errorf("the two sets of the same binary do not agree within the bounds")
	}
	fmt.Fprintln(out, "\nThe two sets agree within every bound.")
	return nil
}

// runChild runs one untraced workload in a child process and parses the
// summary line, the last line of its standard output.
func runChild(exe, workload string, seed int64, seconds float64) (summaryLine, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return summaryLine{}, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line summaryLine
	if err := json.Unmarshal(last, &line); err != nil {
		return summaryLine{}, fmt.Errorf("parse summary line %q: %w", last, err)
	}
	return line, nil
}

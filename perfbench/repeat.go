package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatRuns runs the benchmark n times in child processes, with seeds
// seed..seed+n-1 and the other flags unchanged, and prints for each
// metric the median, quartiles, min and max, and the quartile spread as
// a share of the median: the evidence a metric's bound rests on.
func repeatRuns(args []string, workload string, seed int64, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var base []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		name, _, hasValue := strings.Cut(a, "=")
		if name == "repeat" || name == "seed" {
			if !hasValue {
				i++ // skip the flag's separate value
			}
			continue
		}
		base = append(base, args[i])
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, append(append([]string(nil), base...), "--seed", strconv.FormatInt(s, 10))...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", workload, s, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		fmt.Fprintln(stdout, lines[0]) // the run's metadata line
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "perfbench: seed %d: %v\n", s, err)
			return 1
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-32s %-6s %12s %12s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, name := range names {
		v := append([]float64(nil), values[name]...)
		sort.Float64s(v)
		q1, med, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(stdout, "%-32s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %7.1f%%\n",
			name, units[name], med, q1, q3, v[0], v[len(v)-1], 100*spread)
	}
	return 0
}

// quartiles is Python's statistics.quantiles(v, n=4) (the "exclusive"
// method) on sorted v, which needs at least two values.
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) < 2 {
		return v[0], v[0], v[0]
	}
	ld := len(v)
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * (ld + 1) / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*(ld+1) - j*4)
		q[i-1] = (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// Command benchjson converts `go test -bench` output on stdin into a compact
// JSON summary on stdout. Repeated runs of the same benchmark (-count=N) are
// aggregated into mean/min/max so the summary is robust to machine noise.
//
// It is the back half of scripts/bench.sh and has no dependencies beyond the
// standard library.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type sample struct {
	nsPerOp     []float64
	bytesPerOp  []float64
	allocsPerOp []float64
}

type stat struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

type benchmark struct {
	Name        string `json:"name"`
	Runs        int    `json:"runs"`
	NsPerOp     stat   `json:"ns_per_op"`
	BytesPerOp  *stat  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *stat  `json:"allocs_per_op,omitempty"`
}

// summary is the JSON artifact. NumCPU is the core count of the machine the
// summary was made on (benchjson runs right after the benchmarks, on the
// same host) and GOMAXPROCS the -N suffix the benchmark names carried, so
// a parallel speedup can be judged against the cores that were there.
type summary struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	NumCPU     int         `json:"num_cpu,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func summarize(vals []float64) stat {
	s := stat{Min: vals[0], Max: vals[0]}
	var sum float64
	for _, v := range vals {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vals))
	return s
}

func main() {
	// go test leaves the -N suffix off when GOMAXPROCS is 1.
	out := summary{NumCPU: runtime.NumCPU(), GOMAXPROCS: 1}
	samples := map[string]*sample{}
	var order []string

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			out.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			out.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		// Strip the -GOMAXPROCS suffix so counts from different machines merge.
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if procs, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
				out.GOMAXPROCS = procs
			}
		}
		s := samples[name]
		if s == nil {
			s = &sample{}
			samples[name] = s
			order = append(order, name)
		}
		// Value/unit pairs follow the iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.nsPerOp = append(s.nsPerOp, v)
			case "B/op":
				s.bytesPerOp = append(s.bytesPerOp, v)
			case "allocs/op":
				s.allocsPerOp = append(s.allocsPerOp, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	sort.Strings(order)
	if len(order) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines found on stdin"+
			" (expected `go test -bench` output with Benchmark... lines);"+
			" check the -bench regex and that the packages define benchmarks")
		os.Exit(1)
	}
	for _, name := range order {
		s := samples[name]
		if len(s.nsPerOp) == 0 {
			continue
		}
		b := benchmark{Name: name, Runs: len(s.nsPerOp), NsPerOp: summarize(s.nsPerOp)}
		if len(s.bytesPerOp) > 0 {
			st := summarize(s.bytesPerOp)
			b.BytesPerOp = &st
		}
		if len(s.allocsPerOp) > 0 {
			st := summarize(s.allocsPerOp)
			b.AllocsPerOp = &st
		}
		out.Benchmarks = append(out.Benchmarks, b)
	}

	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: benchmark lines found but none carried an ns/op measurement; nothing to summarize")
		os.Exit(1)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

package bench

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"vbi/internal/harness"
)

// Host fingerprints the machine and build a measurement came from;
// numbers from different hosts or harness versions are not comparable.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// GODEBUG holds the runtime settings the process started with.
	GODEBUG string `json:"godebug"`
	Harness string `json:"harness"`
	Seed    uint64 `json:"seed"`
	// Passes and TracedPasses count the passes over the matrix.
	Passes       int `json:"passes"`
	TracedPasses int `json:"traced_passes"`
}

// HostOf describes this host and the passes a result made.
func HostOf(r *Result) Host {
	untraced, traced := r.passCounts()
	return Host{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		GODEBUG:      os.Getenv("GODEBUG"),
		Harness:      harness.Version,
		Seed:         r.Seed,
		Passes:       untraced,
		TracedPasses: traced,
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	v, err := procField("/proc/cpuinfo", "model name")
	if err != nil {
		return "unknown"
	}
	return v
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	v, err := procField("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, fmt.Errorf("bench: peak RSS: %w", err)
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("bench: peak RSS: %w", err)
	}
	return kb / 1024, nil
}

// procField returns the value of the first "key: value" line of a /proc
// file.
func procField(path, key string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("%s: no %s line", path, key)
}

package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// meta describes the machine and build a result was measured on.
type meta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Network    string `json:"network"`
}

func runMeta(seed uint64, commit string) meta {
	return meta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
		Network:    "tcp traffic crossed the loopback interface of one host, not a network link",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

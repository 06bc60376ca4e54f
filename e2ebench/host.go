package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchDir is the benchmark's own directory, relative to the repository
// root the benchmark runs from.
const benchDir = "e2ebench"

// host identifies the machine a result was measured on. Two results are
// comparable only if their hosts are equal.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// fingerprint is a result's provenance: the host, the program measured and
// the benchmark that measured it.
type fingerprint struct {
	Host host `json:"host"`
	// Commit is the git revision of the checkout, or "unknown" outside
	// one; SourceSHA256 identifies the measured program's sources either
	// way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	// BenchSHA256 identifies the benchmark's own sources. Results measured
	// by different benchmark code are not compared.
	BenchSHA256 string `json:"bench_sha256"`
}

func hostFingerprint() host {
	return host{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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

// commit is the revision run.sh found, or "unknown".
func commit() string {
	if c := os.Getenv("E2EBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// sourceDigests hashes the Go sources and module files under root, split
// into the benchmark's directory and everything else. Build output
// directories (names starting with a dot) are skipped.
func sourceDigests(root string) (program, bench string, err error) {
	var progFiles, benchFiles []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "run.sh" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if strings.HasPrefix(rel, benchDir+string(filepath.Separator)) {
			benchFiles = append(benchFiles, rel)
		} else {
			progFiles = append(progFiles, rel)
		}
		return nil
	})
	if err != nil {
		return "", "", err
	}
	if program, err = digest(root, progFiles); err != nil {
		return "", "", err
	}
	bench, err = digest(root, benchFiles)
	return program, bench, err
}

func digest(root string, files []string) (string, error) {
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		f, err := os.Open(filepath.Join(root, rel))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run writes to its result file: the printed metrics
// plus everything needed to decide whether two runs may be compared.
type result struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       int               `json:"trace"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	// Notes carries sample counts and other context for the metrics.
	Notes map[string]string `json:"notes,omitempty"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

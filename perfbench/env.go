package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Env stamps a result with the host and contention it was measured under.
type Env struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	StealShare float64 `json:"cpu_steal_share"`
	// StealOfBusy is the share of the CPU time the guest wanted that the
	// hypervisor stole; a single busy thread runs this much slower.
	StealOfBusy float64 `json:"cpu_steal_share_of_busy"`
}

func stampEnv(steal, stealOfBusy float64) Env {
	return Env{
		CPUModel:    cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commit(),
		SourceHash:  sourceHash("."),
		StealShare:  steal,
		StealOfBusy: stealOfBusy,
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

// commit is the checked-out git revision, or "unknown" when the current
// directory is not the root of a git work tree (the source hash still
// identifies the code). Git is not asked otherwise, since it would search
// the parent directories.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under root, skipping
// hidden directories (build output lives there).
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTimes reads the aggregate jiffies from /proc/stat: stolen by the
// hypervisor, busy (running anything, steal included) and total.
func cpuTimes() (steal, busy, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		switch i {
		case 3, 4: // idle, iowait
		case 7: // steal
			steal = v
			busy += v
		default:
			busy += v
		}
	}
	return steal, busy, total
}

// cpuSample is a /proc/stat reading.
type cpuSample struct{ steal, busy, total uint64 }

func readCPU() cpuSample {
	s, b, t := cpuTimes()
	return cpuSample{s, b, t}
}

// stealShares returns, between two readings, the share of all CPU time the
// hypervisor stole and the share of busy CPU time (time the guest wanted to
// run) it stole.
func stealShares(a, b cpuSample) (ofAll, ofBusy float64) {
	if b.total > a.total {
		ofAll = float64(b.steal-a.steal) / float64(b.total-a.total)
	}
	if b.busy > a.busy {
		ofBusy = float64(b.steal-a.steal) / float64(b.busy-a.busy)
	}
	return ofAll, ofBusy
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// procSample is a point-in-time reading of process resource use.
type procSample struct {
	cpu       time.Duration
	alloc     uint64
	gcCycles  uint32
	gcPauseNs uint64
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero usage on failure is reported as such
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:     ms.TotalAlloc,
		gcCycles:  ms.NumGC,
		gcPauseNs: ms.PauseTotalNs,
	}
}

// memSampler samples the process's resident set (VmRSS) every interval
// until stop is called.
type memSampler struct {
	stopc chan struct{}
	done  chan struct{}
	rss   []float64 // MB
}

func startMemSampler(interval time.Duration) *memSampler {
	m := &memSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			m.rss = append(m.rss, rssMB())
			select {
			case <-m.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// stop ends sampling and waits for the sampler to return.
func (m *memSampler) stop() {
	close(m.stopc)
	<-m.done
}

// rssMB is the process's current resident set in MB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

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
	"sort"
	"strings"
	"syscall"
)

// environment is recorded with every result, so runs can be compared
// across commits and machines. Commit and source hash describe the
// working directory, the repository root when run through run.sh.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	WALFS      string  `json:"wal_fs"`
	Profile    string  `json:"cpu_profile,omitempty"`
}

func collectEnvironment(b *bench, profile string) environment {
	scale := b.w.scale
	if b.o.scale > 0 {
		scale = b.o.scale
	}
	wal := "none"
	if b.w.remote {
		wal = fsType(b.sys.dir)
	}
	return environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     commit("."),
		SourceHash: sourceHash("."),
		Scale:      scale,
		Seed:       b.o.seed,
		WindowS:    b.o.window.Seconds(),
		WALFS:      wal,
		Profile:    profile,
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

// commit is the checkout's git commit, or "unknown" when root is not the
// top of a git work tree (the source hash still identifies the code).
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	top, head, ok := strings.Cut(strings.TrimSpace(string(out)), "\n")
	abs, aerr := filepath.Abs(root)
	if err != nil || !ok || aerr != nil || filepath.Clean(top) != abs {
		return "unknown"
	}
	return head
}

// sourceHash digests every .go file and go.mod under root (paths and
// contents, in path order), skipping hidden directories such as the
// build output.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fsType names the filesystem holding dir (where the WAL fsyncs land).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strings.ToUpper(hex.EncodeToString([]byte{byte(st.Type >> 24), byte(st.Type >> 16), byte(st.Type >> 8), byte(st.Type)}))
}

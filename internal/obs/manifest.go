package obs

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Manifest is the JSON run-manifest: enough provenance to tell whether
// two runs are comparable (host, toolchain, commit, seeds, config) plus
// the final registry snapshot — the per-phase aggregates included.
type Manifest struct {
	Schema      string `json:"schema"` // "repro/obs/v1"
	GeneratedAt string `json:"generated_at"`
	Command     string `json:"command"` // argv the run was launched with

	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	GitDescribe string            `json:"git_describe,omitempty"`
	Build       map[string]string `json:"build,omitempty"` // vcs.* settings from the embedded build info

	Seeds  map[string]uint64      `json:"seeds,omitempty"`
	Config map[string]interface{} `json:"config,omitempty"` // CLI knobs of the run

	Metrics []Point `json:"metrics,omitempty"` // final registry snapshot
}

// GitDescribe runs `git describe --always --dirty` in the current
// directory and returns the trimmed output, or "" when git or the
// repository is unavailable (manifests must work from exported trees).
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// NewManifest builds a manifest for the current process: command line,
// toolchain and host provenance, git describe and the binary's embedded
// VCS build settings.
func NewManifest() *Manifest {
	m := &Manifest{
		Schema:      "repro/obs/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Command:     strings.Join(os.Args, " "),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GitDescribe: GitDescribe(),
		Seeds:       map[string]uint64{},
		Config:      map[string]interface{}{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Build = map[string]string{}
		for _, s := range bi.Settings {
			if strings.HasPrefix(s.Key, "vcs") || s.Key == "-race" {
				m.Build[s.Key] = s.Value
			}
		}
	}
	return m
}

// Attach stores the registry's current snapshot in the manifest.
func (m *Manifest) Attach(reg *Registry) { m.Metrics = reg.Snapshot() }

// WriteFile marshals the manifest as indented JSON to path.
func (m *Manifest) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadManifest reads a manifest written by WriteFile. No program reads one
// back; it is the read side of the published format, and what the tests
// check a written manifest with.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

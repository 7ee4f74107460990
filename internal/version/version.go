// Package version exposes racesim's build identity: the release
// version, the Go toolchain that built the binary, and the VCS commit
// when the build embedded one. It feeds `racesim version`, the
// /healthz build block, and the racesim_build_info constant-label gauge
// on /metrics — so a scrape (or a fleet of worker scrapes) identifies
// exactly which build produced its series.
package version

import (
	"debug/elf"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
)

// Release is the racesim release string. Overridable at link time:
//
//	go build -ldflags "-X racesim/internal/version.Release=v1.2.3"
//
// When the module is built with a real module version (a tagged
// install), that version wins over this default.
var Release = "v0.10.0-dev"

// Info is the build identity triple.
type Info struct {
	Version   string `json:"version"`    // release string (see Release)
	GoVersion string `json:"go_version"` // toolchain, e.g. "go1.24.0"
	Commit    string `json:"commit"`     // VCS revision, "unknown" when not embedded
}

// Get resolves the build identity from the linked Release string and
// the build info the toolchain embedded (module version, vcs.revision,
// vcs.modified).
func Get() Info {
	info := Info{Version: Release, GoVersion: runtime.Version(), Commit: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		info.Version = v
	}
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			if len(s.Value) >= 12 {
				info.Commit = s.Value[:12]
			} else if s.Value != "" {
				info.Commit = s.Value
			}
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && info.Commit != "unknown" {
		info.Commit += "-dirty"
	}
	return info
}

// String renders the identity as one line, the `racesim version` output.
func (i Info) String() string {
	return fmt.Sprintf("racesim %s %s commit %s", i.Version, i.GoVersion, i.Commit)
}

// BuildID returns the Go build ID the linker stamped into the running
// executable (its .note.go.buildid ELF note, read once per process): a
// hash over everything that was compiled in, so two processes report the
// same ID exactly when they run the same code. It scopes what one process
// may believe of another about code rather than inputs — a trace memo key
// covers a generator's parameters, not the generator (simcache's trace
// identities). It is "" where it cannot be read (not an ELF executable, no
// such note); callers then share nothing across processes.
func BuildID() string { return buildID() }

var buildID = sync.OnceValue(func() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := elf.Open(exe)
	if err != nil {
		return ""
	}
	defer f.Close()
	sec := f.Section(".note.go.buildid")
	if sec == nil {
		return ""
	}
	// An ELF note: name size, descriptor size, type, then the name ("Go")
	// and the descriptor (the build ID), each padded to four bytes.
	note, err := sec.Data()
	if err != nil || len(note) < 12 {
		return ""
	}
	nameSize := uint64(f.ByteOrder.Uint32(note[0:]))
	descSize := uint64(f.ByteOrder.Uint32(note[4:]))
	desc := 12 + (nameSize+3)&^3
	if desc+descSize > uint64(len(note)) {
		return ""
	}
	return string(note[desc : desc+descSize])
})

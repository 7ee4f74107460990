package version

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// TestBuildIDIsTheLinkersStamp: on an ELF platform the running test binary
// has a build ID, it is the one `go tool buildid` prints for the same file,
// and asking again answers the same.
func TestBuildIDIsTheLinkersStamp(t *testing.T) {
	id := BuildID()
	if runtime.GOOS != "linux" {
		t.Skipf("no ELF note to read on %s (BuildID() = %q)", runtime.GOOS, id)
	}
	if id == "" {
		t.Fatal("BuildID() is empty on an ELF executable built by the go tool")
	}
	if again := BuildID(); again != id {
		t.Errorf("BuildID() changed within one process: %q then %q", id, again)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "tool", "buildid", exe).Output()
	if err != nil {
		t.Skipf("go tool buildid unavailable: %v", err)
	}
	if want := strings.TrimSpace(string(out)); want != id {
		t.Errorf("BuildID() = %q, go tool buildid prints %q", id, want)
	}
}

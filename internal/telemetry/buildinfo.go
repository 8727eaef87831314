package telemetry

import (
	"runtime/debug"
	"sync"
)

// codeVersion resolves once: build info is immutable per process.
var codeVersion = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	v := bi.Main.Path
	if v == "" {
		v = "unknown"
	}
	if bi.Main.Version != "" {
		v += "@" + bi.Main.Version
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		v += " " + rev + modified
	}
	return v
})

// CodeVersion identifies the running code: module path and version from
// runtime/debug.ReadBuildInfo, plus the embedded VCS revision (and a
// +dirty marker) when the binary was built from a checkout. It stamps
// the run manifest and the fabric handshake: determinism across
// machines is only meaningful at one code version, so a coordinator
// refuses workers whose CodeVersion differs from its own
// (internal/fabric), and a result cache would key on it (a result
// store is on the ROADMAP's parked list). Binaries built without VCS
// metadata (go test binaries, vendored builds) still agree as long as
// they come from the same build of the same module.
func CodeVersion() string { return codeVersion() }

package profile

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"scaf/internal/cfg"
	"scaf/internal/interp"
	"scaf/internal/lower"
	"scaf/internal/mcgen"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/mcgen.digests from the current profilers")

const mcgenDigests = "testdata/mcgen.digests"

// readDigests parses a "<name> <digest>" golden file.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read goldens: %v", err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, dig, _ := strings.Cut(line, " ")
		out[name] = dig
	}
	return out
}

// TestMcgenProfileDigests pins the digest of every profile (MemDep
// included) of mcgen seeds 1..200 to goldens captured before the
// profilers moved to dense state: any change to what a query can observe
// shows up as a digest mismatch.
func TestMcgenProfileDigests(t *testing.T) {
	const seeds = 200
	var golden map[string]string
	if !*updateDigests {
		golden = readDigests(t, mcgenDigests)
	}
	var out strings.Builder
	for seed := int64(1); seed <= seeds; seed++ {
		name := fmt.Sprintf("seed%d", seed)
		m, err := lower.Compile(name, mcgen.New(seed).Program())
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		d, err := Collect(cfg.NewProgram(m), interp.Options{})
		if err != nil {
			t.Fatalf("%s: profile: %v", name, err)
		}
		got := Digest(d)
		fmt.Fprintf(&out, "%s %s\n", name, got)
		if golden != nil && golden[name] != got {
			t.Errorf("%s: profile digest %s, golden %s", name, got, golden[name])
		}
	}
	if *updateDigests {
		if err := os.WriteFile(mcgenDigests, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

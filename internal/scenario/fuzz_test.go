package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary documents to the JSON and TOML scenario
// parsers, seeded with the golden JSON scenarios and the example TOML
// ones: bad input returns an error, never a panic, and an accepted
// scenario's canonical JSON parses back to the same canonical JSON.
func FuzzParse(f *testing.F) {
	for _, pattern := range []string{"testdata/golden/*.json", "../../examples/scenarios/*.toml"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed corpus at %s: %v", pattern, err)
		}
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw, filepath.Ext(p) == ".toml")
		}
	}
	f.Add([]byte("[run]\nduration = \"1m\"\n"), true)
	f.Add([]byte(`{"name": 1}`), false)
	f.Fuzz(func(t *testing.T, raw []byte, toml bool) {
		parse := Parse
		if toml {
			parse = ParseTOML
		}
		sc, err := parse(raw)
		if err != nil {
			return
		}
		canon := sc.EmitJSON()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical JSON of an accepted scenario does not parse: %v\n%s", err, canon)
		}
		if !bytes.Equal(again.EmitJSON(), canon) {
			t.Fatalf("canonical JSON is not a fixed point:\n%s\n---\n%s", canon, again.EmitJSON())
		}
	})
}

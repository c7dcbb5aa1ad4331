package topology

import (
	"fmt"
	"strings"
	"testing"
)

// parseFamilyLoop is ParseFamily as it was before the lookup table: it
// normalizes every family's display name on every call. It stays here as
// the reference the table must agree with.
func parseFamilyLoop(name string) (Family, error) {
	norm := func(s string) string {
		out := make([]rune, 0, len(s))
		for _, r := range s {
			if r == '-' || r == '_' || r == ' ' {
				continue
			}
			if 'A' <= r && r <= 'Z' {
				r += 'a' - 'A'
			}
			out = append(out, r)
		}
		return string(out)
	}
	want := norm(name)
	for _, f := range Families() {
		if norm(f.String()) == want {
			return f, nil
		}
	}
	return 0, fmt.Errorf("topology: unknown family %q", name)
}

func TestParseFamilyMatchesLoop(t *testing.T) {
	var names []string
	for _, f := range Families() {
		s := f.String()
		names = append(names, s, strings.ToLower(s), strings.ToUpper(s),
			strings.ReplaceAll(s, "-", ""), strings.ReplaceAll(s, "-", "_"),
			strings.ReplaceAll(s, "-", " "), " "+s+"_", "-"+strings.ToLower(s)+"-",
			strings.Join(strings.Split(s, ""), "_"), strings.Join(strings.Split(s, ""), " "))
	}
	names = append(names, "", "-", "bogus", "meshh", "mes", "x--", "Mesh2",
		"MEßH", "mésh", "mesh\xff", "\xff", "torus\x00", "MESH OF TREES", "weak_PPN")
	for _, name := range names {
		got, gotErr := ParseFamily(name)
		want, wantErr := parseFamilyLoop(name)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("ParseFamily(%q) = %v, %v; the loop gives %v, %v", name, got, gotErr, want, wantErr)
		}
	}
	for _, f := range Families() {
		if got, err := ParseFamily(f.String()); err != nil || got != f {
			t.Errorf("ParseFamily(%q) = %v, %v; want %v", f.String(), got, err, f)
		}
	}
}

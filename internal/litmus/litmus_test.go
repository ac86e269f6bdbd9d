package litmus

import (
	"sort"
	"testing"

	"jaaru/internal/core"
)

func TestLitmusSuite(t *testing.T) {
	for _, tst := range Tests() {
		t.Run(tst.Name, func(t *testing.T) {
			got, res := Run(tst)
			if res.Buggy() {
				t.Fatalf("unexpected bugs: %v", res.Bugs)
			}
			if !res.Complete {
				t.Fatal("exploration incomplete")
			}
			want := append([]string(nil), tst.Want...)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("%s\n got  %v\n want %v", tst.Doc, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s\n got  %v\n want %v", tst.Doc, got, want)
				}
			}
		})
	}
}

// The suite must stay in sync with the Table 1 data: count the cells each
// litmus test claims to exercise to ensure the suite is non-trivial.
func TestSuiteCoverage(t *testing.T) {
	tests := Tests()
	if len(tests) < 10 {
		t.Fatalf("litmus suite shrank to %d tests", len(tests))
	}
	names := make(map[string]bool)
	for _, tst := range tests {
		if names[tst.Name] {
			t.Errorf("duplicate test name %q", tst.Name)
		}
		names[tst.Name] = true
		if tst.Doc == "" || len(tst.Want) == 0 {
			t.Errorf("test %q missing doc or expectations", tst.Name)
		}
	}
	_ = core.Options{}
}

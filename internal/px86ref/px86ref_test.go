package px86ref

import (
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestStandardLibraryOnly: the model is independent of the checker only if
// it imports none of it, so its non-test files import the standard library
// alone.
func TestStandardLibraryOnly(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".",
		func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if first, _, _ := strings.Cut(path, "/"); first == "jaaru" || strings.Contains(first, ".") {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
	if files < 4 {
		t.Fatalf("parsed %d files", files)
	}
}

// Two failures: the recovery's store reaches the second recovery only if
// the first one persisted it before failing.
func TestObserveTwoFailures(t *testing.T) {
	p := Program{
		Run:     []Op{St64(0, 1), Flush(0)},
		Recover: []Op{Ld64("x", 0), Ld64("y", 64), St64(64, 2), FlushOpt(64), SFence()},
	}
	if got, want := Observe(p, 1), []string{"x=0 y=0", "x=1 y=0"}; !slices.Equal(got, want) {
		t.Errorf("one failure: %q, want %q", got, want)
	}
	if got, want := Observe(p, 2), []string{"x=0 y=0", "x=0 y=2", "x=1 y=0", "x=1 y=2"}; !slices.Equal(got, want) {
		t.Errorf("two failures: %q, want %q", got, want)
	}
}

// A run's images: each line persists a prefix of its stores, and after the
// flush has propagated at least the stores before it; line 64's store
// propagates only after the flush, so it persists only with both bytes of
// line 0.
func TestImages(t *testing.T) {
	var got []string
	for _, img := range Images([]Op{St(0, 1, 1), St(1, 1, 2), Flush(0), St(0, 1, 3), St(64, 1, 4)}) {
		got = append(got, strconv.Itoa(int(img[0]))+strconv.Itoa(int(img[1]))+strconv.Itoa(int(img[64])))
		if len(img) != 2*LineSize {
			t.Fatalf("image of %d bytes", len(img))
		}
	}
	slices.Sort(got)
	if want := []string{"000", "100", "120", "124", "320", "324"}; !slices.Equal(got, want) {
		t.Errorf("images %q, want %q", got, want)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s := Shape{Lines: 2, Words: 2, Ops: 14, Recover: 6, Mixed: true, RMW: true}
	if a, b := Generate(7, s), Generate(7, s); !reflect.DeepEqual(a, b) {
		t.Fatal("one seed drew two programs")
	}
	for seed := range int64(50) {
		p := Generate(seed, s)
		if n := len(p.Recover); n < 4+6 || n > 4+7 {
			t.Fatalf("seed %d: %d recovery ops", seed, n)
		}
		if last := p.Recover[len(p.Recover)-1]; last.Kind == Store || last.Kind == CAS || last.Kind == FetchAdd {
			t.Errorf("seed %d: recovery ends with an unflushed %v", seed, last)
		}
	}
}

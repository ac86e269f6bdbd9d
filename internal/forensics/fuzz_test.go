package forensics

import (
	"runtime"
	"testing"
)

// FuzzValidateWitnessJSON feeds arbitrary documents to the witness schema
// check behind `jaaru explain -validate`: it must not panic and must allocate
// in proportion to its input. The committed corpus
// (testdata/fuzz/FuzzValidateWitnessJSON) holds a complete witness, one with
// a minimization block, an empty one and schema violations; `go test -fuzz
// FuzzValidateWitnessJSON ./internal/forensics` explores from there.
func FuzzValidateWitnessJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = ValidateJSON(data)
		runtime.ReadMemStats(&after)
		// Generic decoding boxes every value; allow a generous factor.
		if grew, budget := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<20); grew > budget {
			t.Fatalf("validating %d bytes allocated %d, budget %d", len(data), grew, budget)
		}
	})
}

package exec

import (
	"os"
	"testing"
)

// TestMain turns on poisonRecycled for the whole package: every tensor
// entering an executor's free list is filled with NaN, so each bit-identity
// test here also proves that no step reads recycled storage before writing
// it (Tensor.Equal never takes a NaN for a number).
func TestMain(m *testing.M) {
	poisonRecycled = true
	os.Exit(m.Run())
}

package splitmix

import "testing"

// TestStream pins the reference splitmix64 outputs from state 0 and the
// derived Float and Intn: cache keys and pinned outputs depend on them.
func TestStream(t *testing.T) {
	var r Rand
	for i, want := range []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F} {
		if got := r.Next(); got != want {
			t.Fatalf("value %d: %#x, want %#x", i, got, want)
		}
	}
	r = 0
	if got, want := r.Float(), float64(0xE220A8397B1DCDAF>>11)/(1<<53); got != want {
		t.Errorf("Float = %v, want %v", got, want)
	}
	if got, want := r.Intn(1000), int(0x6E789E6AA1B965F4%1000); got != want {
		t.Errorf("Intn = %d, want %d", got, want)
	}
}

package bench

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The calibration kernel is a fixed piece of host work, timed just before
// and just after every Run call. On a shared host, neighbours' load slows
// the simulator by 10–60% for seconds to minutes at a time, invisibly to
// the process's own CPU accounting. Dividing each Run's wall time by the
// kernel's time around it cancels most of that. Of the kernels tried
// (dependent pointer chases over tables from L2 size to beyond the LLC,
// pure integer arithmetic, independent random updates), independent
// random read-modify-writes over a table larger than the host's caches
// tracked the simulator's slow-downs most closely.
//
// Calibrated times are rescaled to a nominal host on which the kernel
// takes calNominal, its time on an unloaded 2-core Xeon, so they read as
// seconds there.
const (
	calTableBytes = 64 << 20
	calUpdates    = 1 << 18
	calNominal    = 3500 * time.Microsecond
)

// calTable is the kernel's table. It is mapped outside the Go heap, so it
// does not raise the collector's heap target and change the simulator's
// GC behaviour, and it is touched up front, so peak RSS is reported net of
// exactly calTableBytes.
type calTable struct {
	mem   []byte
	words []uint64
}

func newCalTable() (*calTable, error) {
	mem, err := syscall.Mmap(-1, 0, calTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("bench: map calibration table: %w", err)
	}
	t := &calTable{mem: mem, words: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calTableBytes/8)}
	for i := range t.words {
		t.words[i] = uint64(i)
	}
	return t, nil
}

func (t *calTable) close() error { return syscall.Munmap(t.mem) }

// run executes the calibration kernel once.
func (t *calTable) run() {
	x := uint64(0x9E3779B97F4A7C15)
	mask := uint64(len(t.words) - 1)
	for i := 0; i < calUpdates; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t.words[x&mask] += x
	}
}

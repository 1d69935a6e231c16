package slab

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// checkAccounting asserts the store invariant the rcgo auditor also
// cross-checks: carved pages partition into in-use and free, and the
// monotone alloc/free counts agree with the in-use gauge.
func checkAccounting(t *testing.T, s *Store) {
	t.Helper()
	st := s.Stats()
	if st.CarvedPages != st.InUsePages+st.FreePages {
		t.Fatalf("carved %d != in-use %d + free %d", st.CarvedPages, st.InUsePages, st.FreePages)
	}
	if st.Allocs-st.Frees != st.InUsePages {
		t.Fatalf("allocs %d - frees %d != in-use %d", st.Allocs, st.Frees, st.InUsePages)
	}
}

func TestAllocFreeRecycle(t *testing.T) {
	for _, forceHeap := range []bool{false, true} {
		t.Run(fmt.Sprintf("forceHeap=%v", forceHeap), func(t *testing.T) {
			s := New(Config{ForceHeap: forceHeap})
			defer s.Close()
			p, err := s.Alloc(8 << 10)
			if err != nil {
				t.Fatalf("Alloc: %v", err)
			}
			b := unsafe.Slice((*byte)(p), 8<<10)
			for i := range b {
				if b[i] != 0 {
					t.Fatalf("fresh block not zeroed at %d", i)
				}
			}
			b[0], b[len(b)-1] = 0xAA, 0xBB
			s.Free(p, 8<<10)
			checkAccounting(t, s)
			q, err := s.Alloc(8 << 10)
			if err != nil {
				t.Fatalf("Alloc after Free: %v", err)
			}
			if q != p {
				t.Fatalf("free list did not recycle the block: %p != %p", q, p)
			}
			b = unsafe.Slice((*byte)(q), 8<<10)
			if b[0] != 0 || b[len(b)-1] != 0 {
				t.Fatalf("recycled block not zeroed: %x %x", b[0], b[len(b)-1])
			}
			checkAccounting(t, s)
		})
	}
}

func TestClassRoundingAndAlignment(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	for _, size := range []int{1, 8 << 10, (8 << 10) + 1, 16 << 10, 64 << 10} {
		p, err := s.Alloc(size)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", size, err)
		}
		if uintptr(p)%(8<<10) != 0 {
			t.Fatalf("Alloc(%d) = %p not 8 KiB-aligned", size, p)
		}
	}
	checkAccounting(t, s)
	if _, err := s.Alloc((64 << 10) + 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized alloc: got %v, want ErrTooLarge", err)
	}
	if _, err := s.Alloc(0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("zero alloc: got %v, want ErrTooLarge", err)
	}
}

// mmap promises only page alignment. A segment whose base is 4 KiB- but
// not 8 KiB-aligned must still yield 8 KiB-aligned blocks, and the same
// number of them within the budget as an aligned one.
func TestMisalignedSegmentYieldsAlignedBlocks(t *testing.T) {
	s := New(Config{ForceHeap: true, MaxBytes: 64 << 10, SegmentBytes: 64 << 10})
	defer s.Close()
	s.mapFn = func(size int) ([]byte, error) {
		raw := make([]byte, size+2*blockAlign)
		off := int(-uintptr(unsafe.Pointer(&raw[0]))&(blockAlign-1)) + 4<<10
		return raw[off : off+size], nil
	}
	for i := 0; i < 8; i++ {
		p, err := s.Alloc(8 << 10)
		if err != nil {
			t.Fatalf("Alloc %d within budget: %v", i, err)
		}
		if uintptr(p)%blockAlign != 0 {
			t.Fatalf("Alloc %d = %p not 8 KiB-aligned", i, p)
		}
	}
	if _, err := s.Alloc(8 << 10); !errors.Is(err, ErrExhausted) {
		t.Fatalf("over budget: got %v, want ErrExhausted", err)
	}
	if st := s.Stats(); st.MappedBytes != 64<<10 || st.Segments != 1 {
		t.Fatalf("mapped %d bytes in %d segments, want 65536 in 1", st.MappedBytes, st.Segments)
	}
	checkAccounting(t, s)
}

func TestExhaustedUnwrapChain(t *testing.T) {
	s := New(Config{MaxBytes: 64 << 10, SegmentBytes: 64 << 10})
	defer s.Close()
	for i := 0; i < 8; i++ {
		if _, err := s.Alloc(8 << 10); err != nil {
			t.Fatalf("Alloc %d within budget: %v", i, err)
		}
	}
	_, err := s.Alloc(8 << 10)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("over budget: got %v, want ErrExhausted in the chain", err)
	}
	wrapped := fmt.Errorf("outer: %w", err)
	if !errors.Is(wrapped, ErrExhausted) {
		t.Fatalf("re-wrapped exhaustion lost the sentinel: %v", wrapped)
	}
}

func TestMapFailureUnwrapChain(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	osErr := errors.New("boom: out of address space")
	s.mapFn = func(int) ([]byte, error) { return nil, fmt.Errorf("%w: %v", ErrMapFailed, osErr) }
	_, err := s.Alloc(8 << 10)
	if !errors.Is(err, ErrMapFailed) {
		t.Fatalf("map failure: got %v, want ErrMapFailed in the chain", err)
	}
	// Heal the backend: the store must stay usable after a failed map.
	s.mapFn = s.mapSegment
	if _, err := s.Alloc(8 << 10); err != nil {
		t.Fatalf("Alloc after healed map failure: %v", err)
	}
	checkAccounting(t, s)
}

func TestCloseIdempotentAndClosedErrors(t *testing.T) {
	s := New(Config{})
	p, err := s.Alloc(8 << 10)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	if _, err := s.Alloc(8 << 10); !errors.Is(err, ErrClosed) {
		t.Fatalf("Alloc on closed store: got %v, want ErrClosed", err)
	}
	// Free after Close must be a harmless no-op, however many times.
	s.Free(p, 8<<10)
	s.Free(p, 8<<10)
	if st := s.Stats(); st.FreePages != 0 {
		t.Fatalf("Free after Close changed accounting: %+v", st)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	s := New(Config{SegmentBytes: 256 << 10})
	defer s.Close()
	const workers = 8
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			size := classSizes[w%len(classSizes)]
			for i := 0; i < rounds; i++ {
				p, err := s.Alloc(size)
				if err != nil {
					t.Errorf("worker %d: Alloc: %v", w, err)
					return
				}
				// Touch the block: first and last byte, to catch
				// overlapping carves under the race detector.
				b := unsafe.Slice((*byte)(p), size)
				b[0], b[size-1] = byte(w), byte(i)
				s.Free(p, size)
			}
		}(w)
	}
	wg.Wait()
	checkAccounting(t, s)
	if st := s.Stats(); st.InUsePages != 0 {
		t.Fatalf("pages leaked after churn: %+v", st)
	}
}

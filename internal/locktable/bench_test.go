package locktable

import (
	"fmt"
	"testing"
)

// BenchmarkFlatLockRelease measures a read and a write lock/release cycle.
func BenchmarkFlatLockRelease(b *testing.B) {
	t := NewTable()
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.LockRead("item", "A")
			t.Release("A", "item")
		}
	})
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t.LockWrite("item", "A")
			t.Release("A", "item")
		}
	})
}

// BenchmarkGranularLockRelease measures multiple-granularity acquisition
// with automatic ancestor intentions at several depths.
func BenchmarkGranularLockRelease(b *testing.B) {
	for _, depth := range []int{1, 3, 6} {
		path := "r"
		for d := 1; d < depth; d++ {
			path += fmt.Sprintf("/n%d", d)
		}
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			g := NewGranularTable()
			for i := 0; i < b.N; i++ {
				if !g.LockMode("A", path, X) {
					b.Fatal("lock denied")
				}
				g.Release("A", path)
			}
		})
	}
}

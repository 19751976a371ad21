//go:build linux || darwin

package snapio

import (
	"fmt"
	"os"
	"syscall"
)

// OpenMappedFile memory-maps path read-only and validates it as a section
// container. Sections alias the mapping; Close munmaps, after which no
// section may be touched. Page-cache residency is shared across every
// process mapping the same file — that is the multi-world hosting win.
func OpenMappedFile(path string, magic string, version uint32) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return nil, fmt.Errorf("%w: empty file %s", ErrTruncated, path)
	}
	if size > maxPayload {
		return nil, fmt.Errorf("%w: %s is %d bytes, exceeds %d", ErrCorrupt, path, size, maxPayload)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("snapio: mmap %s: %w", path, err)
	}
	m, err := newMapped(data, magic, version, func() error {
		return syscall.Munmap(data)
	})
	if err != nil {
		syscall.Munmap(data)
		return nil, err
	}
	return m, nil
}

//go:build !linux && !darwin

package snapio

import (
	"fmt"
	"os"
)

// OpenMappedFile reads path into an 8-aligned private heap buffer and
// validates it as a section container — the portable fallback for platforms
// without mmap support. Loading is one sequential read instead of
// O(page faults), but the zero-decode cast path and the accessor API are
// identical, so callers never branch on platform.
func OpenMappedFile(path string, magic string, version uint32) (*Mapped, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.Size() > maxPayload {
		return nil, fmt.Errorf("%w: %s is %d bytes, exceeds %d", ErrCorrupt, path, st.Size(), maxPayload)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty file %s", ErrTruncated, path)
	}
	return OpenMappedBytes(data, magic, version)
}

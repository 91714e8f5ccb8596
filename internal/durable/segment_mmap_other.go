//go:build !linux

package durable

import (
	"errors"
	"os"
)

// mapFile has no portable implementation: the active segment takes the
// write path on non-linux platforms.
func mapFile(*os.File, int64, int64) ([]byte, error) {
	return nil, errors.New("durable: mapped segments unsupported on this platform")
}

func unmapFile([]byte) error { return nil }

package wal

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzScanFrames holds the frame scanner to its contract on arbitrary
// bytes: it never panics, the valid prefix and the torn tail never cover
// more than the input, and a tail is called torn only when no complete,
// CRC-valid frame of plausible length starts anywhere after the valid
// prefix (a crash leaves at most one partial frame behind the last good
// one).
func FuzzScanFrames(f *testing.F) {
	a, b := frame([]byte("put 1 a\n")), frame([]byte("del 2 b\n"))
	log := append(append([]byte(nil), a...), b...)
	f.Add(log)
	f.Add(log[:len(log)-3])
	f.Add(append(append([]byte(nil), log...), 0, 0, 0, 0, 0, 0, 0, 0, 0))
	flipped := append([]byte(nil), log...)
	flipped[2] ^= 0x10 // a's length now runs past end-of-file
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, allowTorn := range []bool{false, true} {
			res := scanFrames(data, allowTorn, func(int64, []byte) error { return nil })
			if res.good < 0 || res.torn < 0 || res.good+res.torn > int64(len(data)) {
				t.Fatalf("allowTorn=%v: good %d + torn %d outside %d bytes", allowTorn, res.good, res.torn, len(data))
			}
			if res.torn == 0 {
				continue
			}
			if !allowTorn {
				t.Fatalf("torn tail of %d bytes reported with allowTorn=false", res.torn)
			}
			for p := res.good + 1; p+frameHeaderSize <= int64(len(data)); p++ {
				n := int64(binary.LittleEndian.Uint32(data[p:]))
				end := p + frameHeaderSize + n
				if n == 0 || n > maxRecordBytes || end > int64(len(data)) {
					continue
				}
				if crc32.ChecksumIEEE(data[p+frameHeaderSize:end]) == binary.LittleEndian.Uint32(data[p+4:]) {
					t.Fatalf("torn tail at %d, but a valid %d-byte frame starts at %d", res.good, n, p)
				}
			}
		}
	})
}

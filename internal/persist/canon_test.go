package persist

import (
	"strings"
	"testing"
)

// tableAppendString is AppendString one byte at a time through the
// plain table: the word test's reference.
func tableAppendString(buf []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			return buf, false
		}
	}
	return append(append(append(buf, '"'), s...), '"'), true
}

// TestAppendStringMatchesPlainTable holds the eight-bytes-per-load test
// to the plain table: every byte value at every offset of keys 0–24
// bytes long, so each sits in every lane of a word and in the tail, and
// next to every other byte class.
func TestAppendStringMatchesPlainTable(t *testing.T) {
	base := strings.Repeat("abcdefgh/1.0-x", 2)
	for b := 0; b < 256; b++ {
		for n := 0; n <= 24; n++ {
			for off := 0; off < max(n, 1); off++ {
				key := []byte(base[:n])
				if off < n {
					key[off] = byte(b)
				}
				got, gotOK := AppendString([]byte("x"), string(key))
				want, wantOK := tableAppendString([]byte("x"), string(key))
				if gotOK != wantOK || string(got) != string(want) {
					t.Fatalf("AppendString(%q) = %q %v, plain table %q %v", key, got, gotOK, want, wantOK)
				}
			}
		}
	}
	// Two non-plain bytes in one word, the lower one flagged by a
	// different test than the upper one, and each alone.
	for _, pair := range []string{"\x1f\"", "\"<", "<&", "&>", ">\\", "\\\x80", "\x80\x00", "\xff\x20"} {
		for off := 0; off+1 < 16; off++ {
			key := []byte(strings.Repeat("k", 16))
			copy(key[off:], pair)
			if _, ok := AppendString(nil, string(key)); ok {
				t.Fatalf("AppendString(%q) accepted a key with %q", key, pair)
			}
		}
	}
}

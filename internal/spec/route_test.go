package spec

import (
	"hash/fnv"
	"testing"
)

// TestRouteTermIsLineFNV pins the term both routing levels sum: fnv64a
// over the key and a '\n', the same for a string and for a byte view,
// and a table built by Append holds exactly those terms.
func TestRouteTermIsLineFNV(t *testing.T) {
	var table RouteTerms
	keys := []string{"", "a", "core-000/2.1.0/x86_64-centos7-gcc8-opt", "\x00\xff"}
	for i, k := range keys {
		h := fnv.New64a()
		h.Write([]byte(k + "\n"))
		if got, b := RouteTerm(k), RouteTerm([]byte(k)); got != h.Sum64() || b != got {
			t.Errorf("RouteTerm(%q) = %x (bytes %x), fnv64a of the line = %x", k, got, b, h.Sum64())
		}
		if table = table.Append(k); table[i] != RouteTerm(k) {
			t.Errorf("Append(%q) stored %x, want %x", k, table[i], RouteTerm(k))
		}
	}
	if got, want := RouteSum(keys), table[0]+table[1]+table[2]+table[3]; got != want {
		t.Errorf("RouteSum = %x, the table's terms sum to %x", got, want)
	}
}

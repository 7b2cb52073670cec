//go:build !landlord_mutants

package spec

// mutantEnabled reports whether a named mutant is active. In normal
// builds it is a constant false the compiler erases; build with -tags
// landlord_mutants (see mutant_on.go) to select one at run time.
func mutantEnabled(string) bool { return false }

// Package recycle re-slices the backing arrays of simulator state that is
// reset and reused across simulations instead of reallocated: an array
// grows to the largest geometry it has served and is cut to size for each
// new one, so a recycled model allocates nothing in steady state.
package recycle

// Slice returns s cut to n elements, reallocating only when its backing
// array is too small. The contents are unspecified (stale or zero): use it
// for state whose every read is preceded by a write in the same lifetime.
func Slice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Zeroed is Slice with every element cleared.
func Zeroed[T any](s []T, n int) []T {
	s = Slice(s, n)
	clear(s)
	return s
}

// Filled is Slice with every element set to v.
func Filled[T any](s []T, n int, v T) []T {
	s = Slice(s, n)
	for i := range s {
		s[i] = v
	}
	return s
}

package cache

// pageSetChunkPages is the number of page-granular bits per chunk:
// 64 words x 64 bits = 4096 pages, i.e. 16 MiB of address space at 4 KiB
// pages per map entry.
const pageSetChunkPages = 4096

type pageSetChunk [pageSetChunkPages / 64]uint64

// pageSet is a sparse set of page numbers stored as chunked bitsets. The
// replay hot path touches the same few chunks over and over, so the last
// chunk is cached to skip the map on consecutive hits; memory is one bit
// per page within any 16 MiB region ever touched, instead of one
// map[uint64]bool entry per page.
type pageSet struct {
	lastKey uint64
	last    *pageSetChunk
	chunks  map[uint64]*pageSetChunk
	spare   []*pageSetChunk // zeroed chunks a reset took back, reused by Add
}

// reset empties the set (and makes a zero pageSet usable), keeping its
// chunks for the next lifetime.
func (s *pageSet) reset() {
	if s.chunks == nil {
		s.chunks = make(map[uint64]*pageSetChunk, 4)
	}
	for _, c := range s.chunks {
		*c = pageSetChunk{}
		s.spare = append(s.spare, c)
	}
	clear(s.chunks)
	s.lastKey, s.last = ^uint64(0), nil
}

// Contains reports whether page is in the set.
func (s *pageSet) Contains(page uint64) bool {
	key := page / pageSetChunkPages
	c := s.last
	if key != s.lastKey {
		c = s.chunks[key]
		if c == nil {
			return false
		}
		s.lastKey, s.last = key, c
	}
	bit := page % pageSetChunkPages
	return c[bit/64]>>(bit%64)&1 != 0
}

// Add inserts page into the set.
func (s *pageSet) Add(page uint64) {
	key := page / pageSetChunkPages
	c := s.last
	if key != s.lastKey {
		c = s.chunks[key]
		if c == nil {
			if n := len(s.spare); n > 0 {
				c, s.spare = s.spare[n-1], s.spare[:n-1]
			} else {
				c = new(pageSetChunk)
			}
			s.chunks[key] = c
		}
		s.lastKey, s.last = key, c
	}
	bit := page % pageSetChunkPages
	c[bit/64] |= 1 << (bit % 64)
}

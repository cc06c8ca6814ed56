package graphstore

// HoldKey locks the key's own mutex, as a spill of that key holds it
// through its page writes and fsync, and returns the unlock.
func (s *Store) HoldKey(fp string, inputs []int) (release func()) {
	st := s.state(fp, inputs)
	st.mu.Lock()
	return st.mu.Unlock
}

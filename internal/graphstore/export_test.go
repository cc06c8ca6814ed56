package graphstore

import "os"

// LogName is the log's file name in a store's directory.
const LogName = logName

// HoldKey locks the key's own mutex, as a spill of that key holds it
// through its page writes and fsync, and returns the unlock.
func (s *Store) HoldKey(fp string, inputs []int) (release func()) {
	st := s.state(fp, inputs)
	st.mu.Lock()
	return st.mu.Unlock
}

// HookSync routes every later fsync of the store's log through hook,
// which is handed the fsync and returns what the store is told. Call it
// while no spill runs.
func (s *Store) HookSync(hook func(fsync func() error) error) {
	s.fsync = func(f *os.File) error { return hook(f.Sync) }
}

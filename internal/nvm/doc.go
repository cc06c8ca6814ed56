// Package nvm simulates non-volatile main memory for the crash-recovery
// model of Section 2: a store of typed object cells whose values survive
// process crashes, with linearizable (mutex-serialized) operation
// application and access statistics.
//
// Go's garbage-collected runtime cannot host real persistent memory, so
// this package substitutes an explicit store for it: object values
// live in a store that the simulation layer never resets, while
// process-local state (ordinary Go variables in a process's program) is
// wiped by restarting the program — exactly the crash semantics the paper
// assumes.
//
// A Store is safe for concurrent use (every Apply is serialized by one
// mutex, which is also what makes it linearizable); it is owned by one
// simulation run but deliberately survives that run's crashes and
// restarts.
package nvm

//go:build race

package core

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// random share of Puts (allocation counts through a pool are then not
// deterministic).
const raceEnabled = true

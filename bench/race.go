//go:build race

package main

// raceEnabled is true in a -race build, which the harness refuses to
// measure: the detector slows the program several-fold and unevenly.
const raceEnabled = true

package model

// HashWords exposes the packed-identity hash, a snapshot record's check
// value, to the external tests that forge records.
var HashWords = hashWords

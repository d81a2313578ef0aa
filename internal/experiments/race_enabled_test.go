//go:build race

package experiments

// raceEnabled gates the golden-figure regeneration: under the race
// detector the full default-options run takes minutes instead of
// seconds, and the figures do not depend on it — tier-1 and CI both run
// the plain build.
const raceEnabled = true

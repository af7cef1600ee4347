// Testdata: a package no layering rule governs; nothing may fire even
// on edges banned elsewhere.
package ok

import (
	_ "teccl"
	_ "teccl/internal/daemon"
)

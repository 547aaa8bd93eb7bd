package shmfab

import "time"

// WithGeometry returns cfg with a non-default ring geometry: slots per
// ring and data bytes per slot.
func WithGeometry(cfg Config, slots, slotBytes int) Config {
	cfg.slots, cfg.slotBytes = slots, slotBytes
	return cfg
}

// WithAttachTimeout returns cfg with a non-default bound on waiting for a
// peer to finish initializing a ring.
func WithAttachTimeout(cfg Config, d time.Duration) Config {
	cfg.attachTimeout = d
	return cfg
}

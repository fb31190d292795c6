// Package use is a package whose tests name lib.Shared.
package use

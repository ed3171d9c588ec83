"""The VirusTotal service simulator substrate.

The paper's measurement was driven by VirusTotal's paid premium feed; that
feed cannot be redistributed, so this subpackage re-creates the service end
to end: a minute-resolution simulation clock (:mod:`repro.vt.clock`), the
file-type catalogue VT tags reports with (:mod:`repro.vt.filetypes`), a
fleet of 70 behavioural antivirus engines (:mod:`repro.vt.engines`), sample
and scan-report records (:mod:`repro.vt.samples`, :mod:`repro.vt.reports`),
the scanning service itself (:mod:`repro.vt.service`), the three public
APIs whose update rules the paper's Table 1 documents
(:mod:`repro.vt.api`), and the premium per-minute feed the authors consumed
(:mod:`repro.vt.feed`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "clock": (
        "COLLECTION_END", "COLLECTION_MONTHS", "COLLECTION_START",
        "MINUTES_PER_DAY", "SimulationClock", "day_of", "minute_of_day",
        "minutes", "month_index", "month_label",
    ),
    "filetypes": (
        "FILE_TYPES", "PE_FILE_TYPES", "TOP20_FILE_TYPES", "FileTypeProfile",
        "file_type_profile", "is_pe_type",
    ),
    "engines": ("ENGINE_NAMES", "Engine", "EngineFleet", "default_fleet"),
    "samples": ("Sample", "sha256_of"),
    "reports": (
        "LABEL_BENIGN", "LABEL_MALICIOUS", "LABEL_UNDETECTED", "EngineResult",
        "ScanReport",
    ),
    "service": ("VirusTotalService",),
    "api": ("ReportAPI", "RescanAPI", "UploadAPI", "VTClient"),
    "feed": ("PremiumFeed",),
})

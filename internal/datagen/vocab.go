// Package datagen synthesizes entity-resolution workloads that mimic the
// benchmark datasets of the paper's evaluation (Table 2): DBLP-Scholar (DS),
// Abt-Buy (AB), Amazon-Google (AG), Songs (SG) and DBLP-ACM (DA). The real
// files are downloads we cannot fetch offline; these generators reproduce
// their statistical shape — schemas, match ratios, and the dirtiness
// (abbreviations, typos, missing values, sibling entities) that makes ER
// classifiers err — with a deterministic PRNG so every experiment is
// repeatable.
package datagen

// Vocabularies used to synthesize attribute values. They are intentionally
// modest in size: realistic workloads derive their difficulty from value
// corruption and near-duplicate entities, not from vocabulary breadth.

var titleWords = []string{
	"adaptive", "aggregation", "algebra", "algorithms", "analysis", "approximate",
	"architecture", "association", "benchmark", "buffer", "caching", "classification",
	"clustering", "compression", "concurrency", "consistency", "constraints", "cost",
	"data", "database", "decision", "declarative", "deductive", "dependencies",
	"design", "dimensional", "discovery", "distributed", "dynamic", "efficient",
	"engine", "estimation", "evaluation", "execution", "extraction", "federated",
	"filtering", "framework", "functional", "generation", "graph", "hashing",
	"heterogeneous", "hierarchical", "incremental", "indexing", "integration",
	"interactive", "join", "knowledge", "language", "learning", "locking", "logic",
	"maintenance", "management", "materialized", "mediation", "memory", "mining",
	"model", "multidimensional", "networks", "nested", "object", "online",
	"optimization", "oriented", "parallel", "partitioning", "performance",
	"persistent", "pipelined", "planning", "predicate", "processing", "projection",
	"protocols", "quality", "queries", "query", "ranking", "reasoning", "recovery",
	"relational", "replication", "retrieval", "rewriting", "rules", "sampling",
	"scalable", "scheduling", "schema", "search", "selection", "semantic",
	"semistructured", "sequences", "serializability", "similarity", "spatial",
	"storage", "streams", "structures", "temporal", "transaction", "transformation",
	"tree", "tuning", "views", "warehouse", "workflow", "xml",
}

var surnames = []string{
	"abiteboul", "agrawal", "bernstein", "brinkhoff", "carey", "ceri", "chaudhuri",
	"chen", "dayal", "dewitt", "faloutsos", "franklin", "garcia", "gehrke", "gray",
	"guttman", "haas", "halevy", "han", "hellerstein", "ioannidis", "jagadish",
	"kanellakis", "kemper", "kossmann", "kriegel", "kumar", "lee", "li", "liu",
	"lohman", "maier", "mohan", "naughton", "olston", "ooi", "papadias",
	"papadimitriou", "patel", "ramakrishnan", "reuter", "ross", "salzberg",
	"schneider", "seeger", "selinger", "shasha", "silberschatz", "snodgrass",
	"stonebraker", "suciu", "tan", "ullman", "vianu", "wang", "widom", "wiederhold",
	"wong", "yu", "zaniolo", "zhang", "zhou",
}

var firstNames = []string{
	"alfred", "anhai", "bernhard", "bruce", "christos", "daniel", "david", "divesh",
	"donald", "elke", "eugene", "gerhard", "goetz", "guy", "hans", "hector",
	"jeffrey", "jennifer", "jim", "joseph", "kenneth", "laura", "marcel", "michael",
	"nick", "patricia", "peter", "philip", "rakesh", "richard", "robert", "samuel",
	"serge", "stanley", "surajit", "timos", "thomas", "victor", "wei", "yannis",
}

// venue pairs: full name and canonical abbreviation. The corruption model
// swaps between the two forms, which is what makes the abbr-non-substring
// difference metric earn its keep.
var venues = [][2]string{
	{"international conference on management of data", "sigmod"},
	{"international conference on very large data bases", "vldb"},
	{"international conference on data engineering", "icde"},
	{"symposium on principles of database systems", "pods"},
	{"conference on extending database technology", "edbt"},
	{"international conference on database theory", "icdt"},
	{"conference on information and knowledge management", "cikm"},
	{"knowledge discovery and data mining", "kdd"},
	{"acm transactions on database systems", "tods"},
	{"ieee transactions on knowledge and data engineering", "tkde"},
	{"the vldb journal", "vldbj"},
	{"information systems", "is"},
	{"data and knowledge engineering", "dke"},
	{"sigmod record", "sigmod rec"},
	{"world wide web conference", "www"},
}

var productBrands = []string{
	"sony", "panasonic", "samsung", "toshiba", "canon", "nikon", "philips", "bose",
	"jvc", "sharp", "pioneer", "kenwood", "sanyo", "olympus", "garmin", "logitech",
	"netgear", "linksys", "brother", "epson", "lexmark", "yamaha", "denon", "onkyo",
	"whirlpool", "frigidaire", "delonghi", "hoover", "sunbeam", "cuisinart",
	"hamilton", "kitchenaid", "braun", "norelco", "haier", "maytag",
}

var productNouns = []string{
	"camcorder", "television", "receiver", "speaker", "headphones", "subwoofer",
	"microwave", "refrigerator", "dishwasher", "vacuum", "blender", "toaster",
	"projector", "camera", "printer", "scanner", "router", "keyboard", "monitor",
	"turntable", "amplifier", "soundbar", "dehumidifier", "heater", "fan",
	"conditioner", "dryer", "washer", "freezer", "grill",
}

var productAdjs = []string{
	"black", "white", "silver", "portable", "digital", "wireless", "compact",
	"stainless", "steel", "widescreen", "hd", "stereo", "bluetooth", "rechargeable",
	"professional", "deluxe", "series", "edition", "slim", "mini",
}

var softwareNouns = []string{
	"antivirus", "office", "suite", "studio", "photoshop", "encyclopedia",
	"accounting", "payroll", "backup", "firewall", "publisher", "designer",
	"translator", "dictionary", "tutor", "simulator", "converter", "manager",
	"organizer", "planner", "builder", "creator", "editor", "security",
}

var softwareBrands = []string{
	"microsoft", "adobe", "symantec", "intuit", "corel", "mcafee", "roxio",
	"nero", "broderbund", "encore", "topics", "individual", "nova", "sage",
	"avanquest", "kaspersky", "panda", "webroot", "cosmi", "valuesoft",
}

var songWords = []string{
	"love", "night", "heart", "baby", "dance", "fire", "dream", "blue", "road",
	"river", "rain", "summer", "moon", "light", "soul", "rock", "home", "angel",
	"crazy", "sweet", "tonight", "forever", "shine", "gone", "time", "world",
	"stars", "ocean", "wild", "golden", "midnight", "morning", "shadow", "echo",
	"thunder", "silver", "broken", "rising", "falling", "burning",
}

var artistFirst = []string{
	"johnny", "willie", "aretha", "marvin", "stevie", "otis", "etta", "elvis",
	"james", "diana", "smokey", "gladys", "curtis", "isaac", "bill", "patsy",
	"loretta", "merle", "waylon", "dolly", "hank", "chuck", "buddy", "roy",
}

var artistLast = []string{
	"cash", "nelson", "franklin", "gaye", "wonder", "redding", "james", "presley",
	"brown", "ross", "robinson", "knight", "mayfield", "hayes", "withers", "cline",
	"lynn", "haggard", "jennings", "parton", "williams", "berry", "holly", "orbison",
}

var genres = []string{"rock", "pop", "soul", "country", "jazz", "blues", "folk", "funk"}

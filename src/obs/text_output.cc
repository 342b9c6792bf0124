#include "obs/text_output.h"

#include <cstdio>

#include "util/logging.h"

namespace dcbatt::obs {

void
appendJsonString(std::string &out, std::string_view text)
{
    out.push_back('"');
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += util::strf("\\u%04x", c);
            else
                out.push_back(c);
        }
    }
    out.push_back('"');
}

void
writeTextFile(const std::string &path, std::string_view doc)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        util::fatal(util::strf("obs: cannot open %s for writing",
                               path.c_str()));
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
}

} // namespace dcbatt::obs

/**
 * @file
 * Request-trace parsing and loading shared by pimserve and pimtune
 * (see request_trace.h).
 */

#include "request_trace.h"

#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

namespace tpl {
namespace tools {

using transpim::Function;
using transpim::Method;
using transpim::Placement;

namespace {

const std::map<std::string, Function>&
functionTable()
{
    static const std::map<std::string, Function> table = {
        {"sin", Function::Sin},       {"cos", Function::Cos},
        {"tan", Function::Tan},       {"sinh", Function::Sinh},
        {"cosh", Function::Cosh},     {"tanh", Function::Tanh},
        {"exp", Function::Exp},       {"log", Function::Log},
        {"sqrt", Function::Sqrt},     {"gelu", Function::Gelu},
        {"sigmoid", Function::Sigmoid}, {"cndf", Function::Cndf},
        {"atan", Function::Atan},     {"asin", Function::Asin},
        {"acos", Function::Acos},     {"atanh", Function::Atanh},
        {"log2", Function::Log2},     {"log10", Function::Log10},
        {"exp2", Function::Exp2},     {"rsqrt", Function::Rsqrt},
        {"erf", Function::Erf},       {"silu", Function::Silu},
        {"softplus", Function::Softplus},
    };
    return table;
}

const std::map<std::string, Method>&
methodTable()
{
    static const std::map<std::string, Method> table = {
        {"cordic", Method::Cordic},
        {"cordic-fixed", Method::CordicFixed},
        {"cordic-lut", Method::CordicLut},
        {"mlut", Method::MLut},
        {"llut", Method::LLut},
        {"llut-fixed", Method::LLutFixed},
        {"dlut", Method::DLut},
        {"dllut", Method::DlLut},
        {"poly", Method::Poly},
    };
    return table;
}

/** Parse `request key=value ...`; returns false + error on bad input. */
bool
parseTraceLine(const std::string& line, TraceRequest& req,
               std::string& error)
{
    std::istringstream words(line);
    std::string word;
    words >> word;
    if (word != "request") {
        error = "expected 'request', got '" + word + "'";
        return false;
    }
    bool haveFunction = false;
    while (words >> word) {
        size_t eq = word.find('=');
        if (eq == std::string::npos) {
            error = "expected key=value, got '" + word + "'";
            return false;
        }
        std::string key = word.substr(0, eq);
        std::string value = word.substr(eq + 1);
        uint32_t n = 0;
        if (key == "function") {
            auto it = functionTable().find(value);
            if (it == functionTable().end()) {
                error = "unknown function '" + value + "'";
                return false;
            }
            req.function = it->second;
            haveFunction = true;
        } else if (key == "method") {
            auto it = methodTable().find(value);
            if (it == methodTable().end()) {
                error = "unknown method '" + value + "'";
                return false;
            }
            req.spec.method = it->second;
        } else if (key == "elements") {
            if (!parseU32(value, n) || n == 0) {
                error = "bad elements '" + value + "'";
                return false;
            }
            req.elements = n;
        } else if (key == "log2-entries") {
            if (!parseU32(value, req.spec.log2Entries)) {
                error = "bad log2-entries '" + value + "'";
                return false;
            }
        } else if (key == "interpolated") {
            if (!parseU32(value, n) || n > 1) {
                error = "bad interpolated '" + value + "'";
                return false;
            }
            req.spec.interpolated = n != 0;
        } else if (key == "iterations") {
            if (!parseU32(value, req.spec.iterations)) {
                error = "bad iterations '" + value + "'";
                return false;
            }
        } else if (key == "placement") {
            if (value == "wram") {
                req.spec.placement = Placement::Wram;
            } else if (value == "mram") {
                req.spec.placement = Placement::Mram;
            } else {
                error = "bad placement '" + value + "'";
                return false;
            }
        } else if (key == "tenant") {
            if (!parseU64(value, req.tenant)) {
                error = "bad tenant '" + value + "'";
                return false;
            }
        } else {
            error = "unknown key '" + key + "'";
            return false;
        }
    }
    if (!haveFunction || req.elements == 0) {
        error = "request needs at least function= and elements=";
        return false;
    }
    return true;
}

} // namespace

bool
parseU32(const std::string& text, uint32_t& out)
{
    try {
        size_t pos = 0;
        unsigned long v = std::stoul(text, &pos, 0);
        if (pos != text.size() || v > UINT32_MAX)
            return false;
        out = static_cast<uint32_t>(v);
        return true;
    } catch (...) {
        return false;
    }
}

bool
parseU64(const std::string& text, uint64_t& out)
{
    try {
        size_t pos = 0;
        unsigned long long v = std::stoull(text, &pos, 0);
        if (pos != text.size())
            return false;
        out = v;
        return true;
    } catch (...) {
        return false;
    }
}

bool
loadTrace(const char* tool, const std::string& path,
          std::vector<TraceRequest>& trace)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << tool << ": cannot read '" << path << "'\n";
        return false;
    }
    std::string line;
    int lineNo = 0;
    uint64_t elements = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        TraceRequest req;
        std::string error;
        if (!parseTraceLine(line, req, error)) {
            std::cerr << tool << ": " << path << ":" << lineNo << ": "
                      << error << "\n";
            return false;
        }
        elements += req.elements;
        if (elements > kMaxTraceElements) {
            std::cerr << tool << ": " << path << ":" << lineNo
                      << ": trace exceeds " << kMaxTraceElements
                      << " elements (" << line << ")\n";
            return false;
        }
        trace.push_back(req);
    }
    if (trace.empty()) {
        std::cerr << tool << ": " << path << ": no requests\n";
        return false;
    }
    return true;
}

} // namespace tools
} // namespace tpl
